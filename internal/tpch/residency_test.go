package tpch

import (
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/engine"
)

// TestBuildTablesStayResidentInSmallCache serves alternating Q4 and Q13
// variants, one at a time, on an engine whose keep-alive cache holds 1 MiB
// — the budget of the bench's open-churn workload, over its scale factor.
// Every arrival anchors at its family's build candidate, so each family's
// one build table is either served from the cache or rebuilt. Both tables
// fit together: Q4's semi join retains a key-set table of its order keys
// only, where a table carrying its lineitem rows and their index would not
// fit beside Q13's and the two would evict each other on every retire.
// Each family therefore builds once, the cache evicts nothing, and every
// result matches the never-share run.
func TestBuildTablesStayResidentInSmallCache(t *testing.T) {
	db := MustGenerate(Config{ScaleFactor: 0.01, Seed: 42})
	cache := artifact.New(artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute})
	e, err := engine.New(engine.Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref, err := engine.New(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	run := func(e *engine.Engine, name string, variant int, pol engine.SharePolicy) string {
		fam, _ := FamilyByName(name)
		h, err := e.Submit(fam.Spec(db, 0, variant), pol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("%s v%d: %v", name, variant, err)
		}
		return renderBatch(t, res)
	}
	const rounds = 2
	for r := 0; r < rounds; r++ {
		for v := 0; v < Q4FamilyVariants; v++ {
			for _, name := range []string{"Q4", "Q13"} {
				if run(e, name, v, anchorAt{1}) != run(ref, name, v, nil) {
					t.Fatalf("round %d: %s v%d differs from the never-share run", r, name, v)
				}
			}
		}
	}
	s := cache.Stats()
	if n := e.Counters(); n.HashBuilds != 2 {
		t.Errorf("HashBuilds = %d over %d arrivals, want one build per family (cache %+v)", n.HashBuilds, 2*rounds*Q4FamilyVariants, s)
	}
	if s.Evictions != 0 || s.Entries != 2 {
		t.Errorf("cache: %d evictions, %d entries, want both tables resident and none evicted (%+v)", s.Evictions, s.Entries, s)
	}
}
