package tpch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/storage"
)

// BenchmarkSubmitPath measures the end-to-end submit path of a repeated
// query family, cold (PlanKey stripped, every submit recanonicalizes) vs
// warm (memoized compile artifact). Run with -benchmem: the warm arm should
// show fewer allocs/op by the full canonicalization working set. Both run
// never-share; warm-subplan submits the warm spec under the subplan policy,
// so every submit also walks the pivot candidates and the decision tail.
func BenchmarkSubmitPath(b *testing.B) {
	db := MustGenerate(Config{ScaleFactor: 0.002, Seed: 42})
	subplan, _, err := policy.ByName("subplan", core.NewEnv(2), 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name   string
		warm   bool
		policy engine.SharePolicy
	}{{"cold", false, nil}, {"warm", true, nil}, {"warm-subplan", true, policy.ForEngine(subplan)}} {
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
				h, err := e.Submit(spec, arm.policy)
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

// BenchmarkClusterScatter runs each family's variant 0 scattered over a
// cluster of two one-worker shards at SF 0.01, keeping 4 queries in flight:
// the cluster scatter/gather layer (partial forms on both shards, the bus,
// the gather merge) that the benchmark's scatter workload drives through the
// server.
func BenchmarkClusterScatter(b *testing.B) {
	const shards, inflight = 2, 4
	db := MustGenerate(Config{ScaleFactor: 0.01, Seed: 42})
	sdb, err := NewShardedDB(db, shards)
	if err != nil {
		b.Fatal(err)
	}
	c, err := engine.NewCluster(shards, engine.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, f := range ShardFamilies() {
		b.Run(f.Name, func(b *testing.B) {
			plan, err := f.Plan(sdb, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			routed := c.Counters().Routed
			slots := make(chan struct{}, inflight)
			var wg sync.WaitGroup
			var failed atomic.Pointer[error]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slots <- struct{}{}
				wg.Add(1)
				_, err := c.SubmitFn(plan, nil, func(_ *storage.Batch, err error) {
					if err != nil {
						failed.CompareAndSwap(nil, &err)
					}
					<-slots
					wg.Done()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
			b.StopTimer()
			if err := failed.Load(); err != nil {
				b.Fatal(*err)
			}
			if c.Counters().Routed != routed {
				b.Fatalf("%d of %d plans routed whole instead of scattering", c.Counters().Routed-routed, b.N)
			}
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
