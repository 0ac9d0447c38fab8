package server

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
)

// TestShareKeyOfMatchesShareKey holds the share key admission reads from the
// compile memo to the one engine.ShareKey renders, for every family and
// variant on one engine and on two shards: cold (nothing compiled), warm
// (after the query ran, so the memo serves it) and after an epoch bump on
// every scanned table (the memo is stale until the next run). The memo
// lookups must count no compile hit, and a warm groupProspect must not
// allocate.
func TestShareKeyOfMatchesShareKey(t *testing.T) {
	db := tpch.MustGenerate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			s, err := New(Config{DB: db, Shards: shards, Engine: engine.Options{Workers: 2}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Shutdown)
			allocChecks := 0
			for _, f := range tpch.Families() {
				for v := 0; v < f.Variants; v++ {
					p, err := s.pendingFor(Request{Family: f.Name, Variant: v})
					if err != nil {
						t.Fatal(err)
					}
					sharded := len(p.plan.Shards) > 0
					e, spec := s.cluster.Shard(0), p.plan.Template
					if sharded {
						spec = p.plan.Shards[0]
					}
					check := func(when string) {
						t.Helper()
						hits := e.Counters().CompileHits
						if got, want := e.ShareKeyOf(spec), engine.ShareKey(spec); got != want {
							t.Fatalf("%s/%d %s: ShareKeyOf = %q, ShareKey = %q", f.Name, v, when, got, want)
						}
						if e.Counters().CompileHits != hits {
							t.Fatalf("%s/%d %s: ShareKeyOf counted a compile hit", f.Name, v, when)
						}
					}
					// run executes the query and reports whether e ran spec,
					// so that e's memo holds it: the cluster may route a plan
					// whole, running its template on one shard instead.
					run := func() bool {
						t.Helper()
						scatters := s.cluster.Counters().Scatters
						h, err := s.cluster.Submit(p.plan, nil)
						if err == nil {
							_, err = h.Wait()
						}
						if err != nil {
							t.Fatalf("%s/%d: %v", f.Name, v, err)
						}
						return !sharded || s.cluster.Counters().Scatters > scatters
					}
					check("cold")
					if run() && !raceEnabled {
						allocChecks++
						if allocs := testing.AllocsPerRun(20, func() { s.groupProspect(p) }); allocs != 0 {
							t.Errorf("%s/%d: warm groupProspect allocates %v times, want 0", f.Name, v, allocs)
						}
					}
					check("warm")
					for _, nd := range spec.Nodes {
						if nd.Scan != nil {
							nd.Scan.Table.BumpEpoch()
						}
					}
					check("after an epoch bump")
					run()
					check("warm after an epoch bump")
				}
			}
			if !raceEnabled && allocChecks == 0 {
				t.Error("no query ran where its memo could serve groupProspect")
			}
		})
	}
}
