package tpch

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/storage"
)

// renderBatch renders a batch row by row in emitted order — the exact form,
// so comparisons assert byte-identical results, not just equal row sets
// (aggregates emit in deterministic key order, making this well-defined).
func renderBatch(t *testing.T, b *storage.Batch) string {
	t.Helper()
	out := ""
	for i := 0; i < b.Len(); i++ {
		for c, col := range b.Schema.Cols {
			switch col.Type {
			case storage.Int64, storage.Date:
				out += fmt.Sprintf("|%d", b.Vecs[c].I64[i])
			case storage.Float64:
				out += fmt.Sprintf("|%.9f", b.Vecs[c].F64[i])
			case storage.String:
				out += "|" + b.Vecs[c].Str[i]
			}
		}
		out += "\n"
	}
	return out
}

func familyEngine(t *testing.T, opts engine.Options) *engine.Engine {
	t.Helper()
	e, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestFamilyShareKeys pins the fingerprint algebra the families rely on:
// all variants coincide at the scan prefix, no two variants coincide at
// their aggregates, and identical variants coincide everywhere.
func TestFamilyShareKeys(t *testing.T) {
	db := smallDB(t)
	q6 := func(v int) engine.QuerySpec { return Q6FamilySpec(db, 0, v) }
	q1 := func(v int) engine.QuerySpec { return Q1FamilySpec(db, 0, v) }
	for v := 1; v < Q6FamilyVariants; v++ {
		a, b := q6(0), q6(v)
		a.Pivot, b.Pivot = 0, 0
		if engine.ShareKey(a) != engine.ShareKey(b) {
			t.Errorf("q6 variants 0 and %d do not share the scan prefix", v)
		}
		a.Pivot, b.Pivot = 2, 2
		if engine.ShareKey(a) == engine.ShareKey(b) {
			t.Errorf("q6 variants 0 and %d wrongly share at the aggregate", v)
		}
	}
	for v := 1; v < Q1FamilyVariants; v++ {
		a, b := q1(0), q1(v)
		if engine.ShareKey(a) != engine.ShareKey(b) {
			t.Errorf("q1 variants 0 and %d do not share the scan prefix", v)
		}
		a.Pivot, b.Pivot = 1, 1
		if engine.ShareKey(a) == engine.ShareKey(b) {
			t.Errorf("q1 variants 0 and %d wrongly share at the aggregate", v)
		}
	}
	same1, same2 := q1(1), q1(1)
	same1.Pivot, same2.Pivot = 1, 1
	if engine.ShareKey(same1) != engine.ShareKey(same2) {
		t.Error("identical q1 variants do not share at the aggregate")
	}
}

// TestQ6FamilySupersetResidual is the acceptance check for superset-scan +
// residual-filter sharing: all three date-window variants submitted to a
// paused engine merge into one group at the scan, and every member's result
// is byte-identical to the same query run alone (single-threaded reference
// and an unshared engine run). Run under -race this also exercises the
// refcounted fan-out of one page to divergent private chains.
func TestQ6FamilySupersetResidual(t *testing.T) {
	db := smallDB(t)
	for _, fanOut := range []engine.FanOutMode{engine.FanOutShare, engine.FanOutClone} {
		t.Run(fanOut.String(), func(t *testing.T) {
			e := familyEngine(t, engine.Options{Workers: 2, FanOut: fanOut, StartPaused: true})
			var handles []*engine.Handle
			for v := 0; v < Q6FamilyVariants; v++ {
				h, err := e.Submit(Q6FamilySpec(db, 0, v), policy.Always{})
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			// All three variants must have merged into one scan-level group.
			scanKey := engine.ShareKey(Q6FamilySpec(db, 0, 0))
			if got := e.GroupSize(scanKey); got != Q6FamilyVariants {
				t.Fatalf("scan group size = %d, want %d", got, Q6FamilyVariants)
			}
			e.Start()
			for v, h := range handles {
				got, err := h.Wait()
				if err != nil {
					t.Fatalf("variant %d: %v", v, err)
				}
				want, err := Q6FamilyReference(db, v)
				if err != nil {
					t.Fatal(err)
				}
				if renderBatch(t, got) != renderBatch(t, want) {
					t.Errorf("variant %d: shared result differs from reference", v)
				}
				alone := familyEngine(t, engine.Options{Workers: 2, FanOut: fanOut})
				ha, err := alone.Submit(Q6FamilySpec(db, 0, v), nil)
				if err != nil {
					t.Fatal(err)
				}
				aloneRes, err := ha.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if renderBatch(t, got) != renderBatch(t, aloneRes) {
					t.Errorf("variant %d: shared result differs from run-alone", v)
				}
			}
			if joins := e.Counters().PivotJoins; joins[0] != Q6FamilyVariants-1 {
				t.Errorf("pivot-level joins = %v, want %d at level 0", joins, Q6FamilyVariants-1)
			}
		})
	}
}

// TestQ1FamilySharedAtScan checks the group-by variants of Q1 share the
// lineitem pass while producing each variant's own correct rollup.
func TestQ1FamilySharedAtScan(t *testing.T) {
	db := smallDB(t)
	e := familyEngine(t, engine.Options{Workers: 2, StartPaused: true})
	var handles []*engine.Handle
	for v := 0; v < Q1FamilyVariants; v++ {
		h, err := e.Submit(Q1FamilySpec(db, 0, v), policy.Always{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if got := e.GroupSize(engine.ShareKey(Q1FamilySpec(db, 0, 0))); got != Q1FamilyVariants {
		t.Fatalf("scan group size = %d, want %d", got, Q1FamilyVariants)
	}
	e.Start()
	for v, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		want, err := Q1FamilyReference(db, v)
		if err != nil {
			t.Fatal(err)
		}
		if renderBatch(t, got) != renderBatch(t, want) {
			t.Errorf("variant %d: shared result differs from reference", v)
		}
	}
}

// TestQ1FamilyPivotLift checks model-guided pivot selection lifts identical
// queries to the aggregate: under the subplan policy a fresh group anchors
// at the agg level (the model's best), the second arrival merges there, and
// results stay byte-identical to the reference.
func TestQ1FamilyPivotLift(t *testing.T) {
	db := smallDB(t)
	pol := policy.ModelGuided{Env: core.NewEnv(2), PivotSelect: true}
	e := familyEngine(t, engine.Options{Workers: 2, StartPaused: true})
	spec := Q1FamilySpec(db, 0, 0)
	h1, err := e.Submit(spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	aggSpec := spec
	aggSpec.Pivot = 1
	if got := e.GroupSize(engine.ShareKey(aggSpec)); got != 1 {
		t.Fatalf("no agg-level group after first submit (size %d)", got)
	}
	h2, err := e.Submit(spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.GroupSize(engine.ShareKey(aggSpec)); got != 2 {
		t.Fatalf("agg-level group size = %d, want 2", got)
	}
	e.Start()
	want, err := Q1FamilyReference(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []*engine.Handle{h1, h2} {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if renderBatch(t, got) != renderBatch(t, want) {
			t.Errorf("member %d: agg-pivot shared result differs from reference", i)
		}
	}
	if joins := e.Counters().PivotJoins; joins[1] != 1 {
		t.Errorf("pivot-level joins = %v, want 1 at level 1", joins)
	}
}

// TestJoinFamilyBuildKeys pins the fingerprint algebra build sharing relies
// on: no two Q4 (or Q13) variants coincide at the join, every pair
// coincides at the build subtree, and the build key is distinct from the
// fan-out key of the same subtree.
func TestJoinFamilyBuildKeys(t *testing.T) {
	db := smallDB(t)
	for v := 1; v < Q4FamilyVariants; v++ {
		a, b := Q4FamilySpec(db, 0, 0), Q4FamilySpec(db, 0, v)
		if engine.ShareKey(a) == engine.ShareKey(b) {
			t.Errorf("q4 variants 0 and %d wrongly share at the join", v)
		}
		if engine.BuildShareKey(a, 0) != engine.BuildShareKey(b, 0) {
			t.Errorf("q4 variants 0 and %d do not share the build subplan", v)
		}
	}
	for v := 1; v < Q13FamilyVariants; v++ {
		a, b := Q13FamilySpec(db, 0, 0), Q13FamilySpec(db, 0, v)
		if engine.ShareKey(a) == engine.ShareKey(b) {
			t.Errorf("q13 variants 0 and %d wrongly share at the join", v)
		}
		if engine.BuildShareKey(a, 1) != engine.BuildShareKey(b, 1) {
			t.Errorf("q13 variants 0 and %d do not share the build subplan", v)
		}
	}
	// The standard Q4 spec scans lineitem identically, so it amortizes the
	// same build as the family variants.
	if engine.BuildShareKey(MustEngineSpec(Q4, db, 0), 0) != engine.BuildShareKey(Q4FamilySpec(db, 0, 0), 0) {
		t.Error("standard Q4 and the Q4 family do not share the lineitem build")
	}
}

// TestQ4FamilyBuildShare is the acceptance check for build-side sharing:
// two concurrently submitted Q4-family variants execute exactly one hash
// build — the first anchors a group at the join whose shared subtree
// publishes the build state, the second matches only the build subplan and
// attaches to the table — and each member's result is byte-identical to the
// single-threaded reference and to the same query run alone. Run under
// -race this also exercises the seal/attach handshake.
func TestQ4FamilyBuildShare(t *testing.T) {
	db := smallDB(t)
	e := familyEngine(t, engine.Options{Workers: 2, StartPaused: true})
	variants := []int{1, 2}
	var handles []*engine.Handle
	for _, v := range variants {
		h, err := e.Submit(Q4FamilySpec(db, 0, v), policy.Always{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	key := engine.BuildShareKey(Q4FamilySpec(db, 0, 0), 0)
	if got := e.GroupSize(key); got != 2 {
		t.Fatalf("build group size = %d, want 2", got)
	}
	e.Start()
	for i, h := range handles {
		v := variants[i]
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		want, err := Q4FamilyReference(db, v)
		if err != nil {
			t.Fatal(err)
		}
		if renderBatch(t, got) != renderBatch(t, want) {
			t.Errorf("variant %d: shared result differs from reference", v)
		}
		alone := familyEngine(t, engine.Options{Workers: 2})
		ha, err := alone.Submit(Q4FamilySpec(db, 0, v), nil)
		if err != nil {
			t.Fatal(err)
		}
		aloneRes, err := ha.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if renderBatch(t, got) != renderBatch(t, aloneRes) {
			t.Errorf("variant %d: shared result differs from run-alone", v)
		}
	}
	if got := e.Counters().HashBuilds; got != 1 {
		t.Errorf("HashBuilds = %d, want exactly 1", got)
	}
	if got := e.Counters().BuildJoins; got != 1 {
		t.Errorf("BuildJoins = %d, want 1", got)
	}
	if got := e.Exchange().BuildStatesInFlight(); got != 0 {
		t.Errorf("build states in flight after completion = %d, want 0", got)
	}
}

// TestQ13FamilyBuildShare checks the outer-join family: all three customer
// segments amortize one filtered-orders build (scan + tag project — a
// multi-node build subtree), each producing its own correct distribution.
func TestQ13FamilyBuildShare(t *testing.T) {
	db := smallDB(t)
	e := familyEngine(t, engine.Options{Workers: 2, StartPaused: true})
	var handles []*engine.Handle
	for v := 0; v < Q13FamilyVariants; v++ {
		h, err := e.Submit(Q13FamilySpec(db, 0, v), policy.Always{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	e.Start()
	for v, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		want, err := Q13FamilyReference(db, v)
		if err != nil {
			t.Fatal(err)
		}
		if renderBatch(t, got) != renderBatch(t, want) {
			t.Errorf("variant %d: shared result differs from reference", v)
		}
	}
	if got := e.Counters().HashBuilds; got != 1 {
		t.Errorf("HashBuilds = %d, want exactly 1", got)
	}
	if got := e.Counters().BuildJoins; got != int64(Q13FamilyVariants-1) {
		t.Errorf("BuildJoins = %d, want %d", got, Q13FamilyVariants-1)
	}
}

// TestQ4FamilyCacheAcrossBursts is the acceptance check for across-burst
// sharing: three bursts of all Q4-family variants, each burst fully drained
// before the next (so every burst's build state retires), with an idle gap
// far below the keep-alive window. With the cache the whole run executes
// exactly one hash build — burst 1 builds, its retired table is retained,
// and every later burst's anchor attaches to it with zero build work. The
// identical run with the cache disabled rebuilds per burst. Every result is
// byte-identical to the single-threaded reference, cached or cold.
func TestQ4FamilyCacheAcrossBursts(t *testing.T) {
	db := smallDB(t)
	const bursts = 3
	runBursts := func(e *engine.Engine) {
		t.Helper()
		for b := 0; b < bursts; b++ {
			var handles []*engine.Handle
			for v := 0; v < Q4FamilyVariants; v++ {
				h, err := e.Submit(Q4FamilySpec(db, 0, v), policy.Always{})
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			for v, h := range handles {
				got, err := h.Wait()
				if err != nil {
					t.Fatalf("burst %d variant %d: %v", b, v, err)
				}
				want, err := Q4FamilyReference(db, v)
				if err != nil {
					t.Fatal(err)
				}
				if renderBatch(t, got) != renderBatch(t, want) {
					t.Errorf("burst %d variant %d: result differs from reference", b, v)
				}
			}
			if got := e.Exchange().BuildStatesInFlight(); got != 0 {
				t.Fatalf("burst %d: %d build states survived the drain", b, got)
			}
		}
	}

	cache := artifact.New(artifact.Config{BudgetBytes: 64 << 20, TTL: time.Minute})
	warm := familyEngine(t, engine.Options{Workers: 2, Cache: cache})
	runBursts(warm)
	if got := warm.Counters().HashBuilds; got != 1 {
		t.Errorf("HashBuilds with cache = %d, want exactly 1 across %d bursts", got, bursts)
	}
	if got := warm.Counters().Cache.Hits; got < int64(bursts-1) {
		t.Errorf("CacheHits = %d, want at least one per warm burst (%d)", got, bursts-1)
	}
	if got, budget := warm.Counters().Cache.Bytes, int64(64<<20); got <= 0 || got > budget {
		t.Errorf("CacheBytes = %d, want within (0, %d]", got, budget)
	}

	cold := familyEngine(t, engine.Options{Workers: 2})
	runBursts(cold)
	if got := cold.Counters().HashBuilds; got < int64(bursts) {
		t.Errorf("HashBuilds without cache = %d, want at least one per burst (%d)", got, bursts)
	}
}
