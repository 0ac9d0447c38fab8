package tpch

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// BenchmarkSubmitPath measures the end-to-end submit path of a repeated
// query family, cold (PlanKey stripped, every submit recanonicalizes) vs
// warm (memoized compile artifact). Run with -benchmem: the warm arm should
// show fewer allocs/op by the full canonicalization working set.
func BenchmarkSubmitPath(b *testing.B) {
	db := MustGenerate(Config{ScaleFactor: 0.002, Seed: 42})
	for _, arm := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(arm.name, func(b *testing.B) {
			e, err := engine.New(engine.Options{Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			spec := MustEngineSpec(Q4, db, 0)
			if !arm.warm {
				spec.PlanKey = ""
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := e.Submit(spec, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFamilyAlone runs variant 0 of each query family alone on an idle
// 2-worker engine at SF 0.01, the unshared work the benchmark's alone
// workload repeats. Besides allocs/op it reports pages/op, scan pages drawn
// from the page pool per query: the count the page granule sets, and with it
// the fixed per-page cost (quantum, queue hop, pool round trip) each query
// pays on top of its row work.
func BenchmarkFamilyAlone(b *testing.B) {
	db := MustGenerate(Config{ScaleFactor: 0.01, Seed: 42})
	e, err := engine.New(engine.Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for _, f := range Families() {
		b.Run(f.Name, func(b *testing.B) {
			spec := f.Spec(db, 0, 0)
			b.ReportAllocs()
			gets0, _, _ := storage.PagePoolStats()
			for i := 0; i < b.N; i++ {
				h, err := e.Submit(spec, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			gets1, _, _ := storage.PagePoolStats()
			b.ReportMetric(float64(gets1-gets0)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkCompileStep isolates the canonicalization the compile cache
// saves: a cold Compile against the warm Valid+Matches guard.
func BenchmarkCompileStep(b *testing.B) {
	db := MustGenerate(Config{ScaleFactor: 0.002, Seed: 42})
	spec := MustEngineSpec(Q4, db, 0)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.Compile(spec)
		}
	})
	b.Run("warm", func(b *testing.B) {
		cp := engine.Compile(spec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !cp.Valid() || !cp.Matches(spec) {
				b.Fatal("warm guard rejected an unchanged spec")
			}
		}
	})
}
