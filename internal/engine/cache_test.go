package engine

import (
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/relop"
	"repro/internal/storage"
)

// cacheEngine builds an engine over a fresh keep-alive cache.
func cacheEngine(t *testing.T, cfg artifact.Config, opts Options) (*Engine, *artifact.Cache) {
	t.Helper()
	c := artifact.New(cfg)
	opts.Cache = c
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, c
}

// runOne submits spec and waits for its result.
func runOne(t *testing.T, e *Engine, spec QuerySpec, pol SharePolicy) *storage.Batch {
	t.Helper()
	h, err := e.Submit(spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Two bursts separated by an idle gap shorter than the keep-alive window
// execute exactly one hash build: the first burst's table retires into the
// cache, the second burst's arrival anchors a cache-served group and
// registers as a late attach with zero build work.
func TestBuildCacheHitAcrossBursts(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, c := cacheEngine(t, artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute}, Options{Workers: 2})
	specA := semiSpec(bt, pt, "bc/a", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}})
	specB := semiSpec(bt, pt, "bc/b", relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: 16}})

	// Burst 1: one build, table handed to the cache at retire.
	ra := runOne(t, e, specA, buildAnchor{idx: 1})
	wantRange(t, "burst 1", ra, 0, 32)
	if got := e.Exchange().BuildStatesInFlight(); got != 0 {
		t.Fatalf("build states in flight between bursts = %d, want 0", got)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("cache entries after burst 1 = %d, want the retired table retained", s.Entries)
	}

	// Burst 2 (different variant — only the build subplan matches): served
	// from the cache, no rebuild.
	rb := runOne(t, e, specB, buildAnchor{idx: 1})
	wantRange(t, "burst 2", rb, 16, 32)
	if got := e.Counters().HashBuilds; got != 1 {
		t.Errorf("HashBuilds across bursts = %d, want exactly 1", got)
	}
	if got := e.Counters().Cache.Hits; got != 1 {
		t.Errorf("CacheHits = %d, want 1", got)
	}
	if got := e.Counters().BuildJoins; got != 1 {
		t.Errorf("BuildJoins = %d, want the cache hit counted as a late attach", got)
	}
	// The served group re-offered the table at its retire: still retained.
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("cache entries after burst 2 = %d, want the table re-retained", s.Entries)
	}
}

// The same two bursts without a cache rebuild per burst — the baseline the
// keep-alive window removes.
func TestBuildRebuildsPerBurstWithoutCache(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := semiSpec(bt, pt, "nc/a", nil)
	wantRange(t, "burst 1", runOne(t, e, spec, buildAnchor{idx: 1}), 0, 32)
	wantRange(t, "burst 2", runOne(t, e, spec, buildAnchor{idx: 1}), 0, 32)
	if got := e.Counters().HashBuilds; got != 2 {
		t.Errorf("HashBuilds without cache = %d, want 2 (one per burst)", got)
	}
}

// An idle gap past the keep-alive window expires the artifact: the next
// burst misses and rebuilds.
func TestBuildCacheMissAfterExpiry(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, c := cacheEngine(t, artifact.Config{BudgetBytes: 1 << 20, TTL: 30 * time.Millisecond}, Options{Workers: 2})
	spec := semiSpec(bt, pt, "ex/a", nil)
	runOne(t, e, spec, buildAnchor{idx: 1})
	time.Sleep(80 * time.Millisecond)
	runOne(t, e, spec, buildAnchor{idx: 1})
	if got := e.Counters().HashBuilds; got != 2 {
		t.Errorf("HashBuilds with expired gap = %d, want 2", got)
	}
	if s := c.Stats(); s.Expirations < 1 {
		t.Errorf("Expirations = %d, want at least 1", s.Expirations)
	}
	if got := e.Counters().Cache.Hits; got != 0 {
		t.Errorf("CacheHits = %d, want 0 (entry expired)", got)
	}
}

// A mutation-path publish on the build's source table bumps its epoch: the
// retained table is rejected as stale and the rebuild sees the new data.
func TestBuildCacheEpochInvalidation(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, c := cacheEngine(t, artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute}, Options{Workers: 2})
	spec := semiSpec(bt, pt, "ep/a", relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: 16}})
	wantRange(t, "burst 1", runOne(t, e, spec, buildAnchor{idx: 1}), 16, 32)

	// Publish a new build row (40): a cached serve would miss it.
	bt.MustAppend(int64(40))
	got := runOne(t, e, spec, buildAnchor{idx: 1})
	seen := make(map[int64]bool)
	for _, v := range got.MustCol("pv").I64 {
		seen[v] = true
	}
	if !seen[40] {
		t.Error("result after mutation lacks the new build row — stale table was served")
	}
	if builds := e.Counters().HashBuilds; builds != 2 {
		t.Errorf("HashBuilds = %d, want 2 (stale entry rejected, rebuilt)", builds)
	}
	// The epoch is baked into the canonical scan fingerprint, so the
	// post-mutation lookup probes a different key entirely: staleness
	// registers as a miss, never an epoch-mismatch hit on the old entry.
	if s := c.Stats(); s.Invalidations != 0 {
		t.Errorf("Invalidations = %d, want 0 (epoch change rotates the key)", s.Invalidations)
	}
}

// Under a byte budget too small for two tables the cache evicts the
// lower-benefit one, and the footprint gauge never exceeds the budget.
func TestBuildCacheEvictionUnderTightBudget(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	bt2 := storage.NewTable("bt2", storage.MustSchema(storage.Column{Name: "bv", Type: storage.Int64}))
	for i := 0; i < 32; i++ {
		bt2.MustAppend(int64(i))
	}
	// Budget sized to one 32-row table (rows + index), not two.
	e, c := cacheEngine(t, artifact.Config{BudgetBytes: 1500, TTL: time.Minute}, Options{Workers: 2})
	specA := semiSpec(bt, pt, "ev/a", nil)
	specB := semiSpec(bt2, pt, "ev/b", nil)
	runOne(t, e, specA, buildAnchor{idx: 1})
	runOne(t, e, specB, buildAnchor{idx: 1})
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1 (second table displaced the first)", s.Evictions)
	}
	if s.Entries != 1 {
		t.Errorf("Entries = %d, want 1", s.Entries)
	}
	if s.Bytes > 1500 || e.Counters().Cache.Bytes > 1500 {
		t.Errorf("CacheBytes = %d exceeds the %d budget", s.Bytes, 1500)
	}
	// The evicted table is gone: re-running its query rebuilds.
	runOne(t, e, specA, buildAnchor{idx: 1})
	if got := e.Counters().HashBuilds; got != 3 {
		t.Errorf("HashBuilds = %d, want 3 (eviction forced a rebuild)", got)
	}
}

// pairsOnly joins groups of at most two members and anchors fresh groups at
// the declared pivot.
type pairsOnly struct{}

func (pairsOnly) ShouldJoin(_ core.Query, m int) bool { return m <= 2 }

// A mixed group (anchored at the join with the build candidate inside its
// shared subtree) also serves its build from the cache: it starts with a
// sealed table and spawns no build subtree. The candidate loop consults the
// cache before any fresh anchor, so the second burst reaches a mixed group
// only once the build key's local group refuses a joiner: one variant
// anchors a cache-served build group, a second joins it, and a third, which
// the policy keeps out of a group of three and which matches nothing at
// its join, anchors a fresh group there. That group's split join finds the
// table retained.
func TestMixedGroupServesBuildFromCache(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	c := artifact.New(artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute})
	lt := func(v int64) relop.Pred { return relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: v}} }
	specA := semiSpec(bt, pt, "mx/a", lt(32))
	specB := semiSpec(bt, pt, "mx/b", lt(24))
	specC := semiSpec(bt, pt, "mx/c", lt(16))

	// Burst 1 builds the table and leaves it in the cache.
	seed, err := New(Options{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, "burst 1", runOne(t, seed, specA, joinOnly{}), 0, 32)
	seed.Close()
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("cache entries after burst 1 = %d, want the table retained", s.Entries)
	}

	// Burst 2 forms its groups on a paused engine over the same cache.
	e, err := New(Options{Workers: 2, Cache: c, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var hs []*Handle
	for i, s := range []struct {
		spec QuerySpec
		kind string
	}{{specB, "cache-build"}, {specC, "build-share"}, {specA, "anchor"}} {
		h, err := e.Submit(s.spec, pairsOnly{})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Decision().Kind; got != s.kind {
			t.Fatalf("burst 2 query %d: decision %q, want %q", i, got, s.kind)
		}
		hs = append(hs, h)
	}
	e.Start()
	for i, hi := range []int64{24, 16, 32} {
		res, err := waitWithin(t, hs[i])
		if err != nil {
			t.Fatal(err)
		}
		wantRange(t, "burst 2", res, 0, hi)
	}
	// The mixed anchor counts as a late attach to the retained build, as
	// the cache-build anchor and the build-share joiner do.
	if n := e.Counters(); n.HashBuilds != 0 || n.BuildJoins != 3 {
		t.Errorf("burst 2: HashBuilds=%d BuildJoins=%d, want 0 builds and 3 attaches to the cached table", n.HashBuilds, n.BuildJoins)
	}
	if s := c.Stats(); s.Hits != 2 {
		t.Errorf("cache hits = %d, want 2 (the cache-build anchor and the mixed group)", s.Hits)
	}
}

// resultSpec is a scan → count aggregate whose root is offered as a pivot
// candidate, making the finished result a cacheable artifact.
func resultSpec(pt *storage.Table, sig string) QuerySpec {
	schema := storage.MustSchema(storage.Column{Name: "pv", Type: storage.Int64})
	return QuerySpec{
		Signature: sig,
		Pivot:     0,
		Pivots: []PivotOption{
			{Pivot: 1, Model: core.Query{Name: sig + "@agg", Below: []float64{2}, PivotW: 1, PivotS: 0.01}},
			{Pivot: 0, Model: core.Query{Name: sig + "@scan", PivotW: 2, PivotS: 0.5, Above: []float64{1}}},
		},
		Nodes: []NodeSpec{
			ScanNode(sig+"/scan", pt, nil, []string{"pv"}, 16),
			{
				Name:        sig + "/agg",
				Input:       0,
				Fingerprint: sig + "/count",
				Op: func(emit relop.Emit) (relop.Operator, error) {
					return relop.NewHashAgg(schema, nil, []relop.AggSpec{{Func: relop.Count, As: "n"}}, emit)
				},
			},
		},
	}
}

// A completed root-pivot result run is retained and a fingerprint-matching
// re-arrival is served from it without re-executing the plan.
func TestResultRunServedFromCache(t *testing.T) {
	_, pt := buildTables(t, 4, 64)
	e, c := cacheEngine(t, artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute}, Options{Workers: 2})
	spec := resultSpec(pt, "rr/a")
	first := runOne(t, e, spec, joinOnly{})
	if first.Len() != 1 || first.MustCol("n").I64[0] != 64 {
		t.Fatalf("cold run result = %v rows", first.Len())
	}
	second := runOne(t, e, spec, joinOnly{})
	if second.Len() != 1 || second.MustCol("n").I64[0] != 64 {
		t.Fatalf("warm run result differs: %v rows", second.Len())
	}
	if got := e.Counters().Cache.Hits; got != 1 {
		t.Errorf("CacheHits = %d, want 1 (second run served)", got)
	}
	if got := e.Counters().Completed; got != 2 {
		t.Errorf("Completed = %d, want 2 (served runs count as completions)", got)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("cache entries = %d, want the result run retained", s.Entries)
	}
	// A never-share submission must not be served retained work.
	cold := runOne(t, e, spec, nil)
	if cold.MustCol("n").I64[0] != 64 {
		t.Fatal("never-share run wrong result")
	}
	if got := e.Counters().Cache.Hits; got != 1 {
		t.Errorf("CacheHits after never-share run = %d, want still 1", got)
	}
}

// A mutation to the scanned table invalidates the retained result run: the
// re-arrival recomputes and sees the new row.
func TestResultRunEpochInvalidation(t *testing.T) {
	_, pt := buildTables(t, 4, 64)
	e, c := cacheEngine(t, artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute}, Options{Workers: 2})
	spec := resultSpec(pt, "ri/a")
	runOne(t, e, spec, joinOnly{})
	pt.MustAppend(int64(999))
	got := runOne(t, e, spec, joinOnly{})
	if n := got.MustCol("n").I64[0]; n != 65 {
		t.Errorf("count after mutation = %d, want 65 (stale run must not be served)", n)
	}
	// Epoch-in-fingerprint: the mutated re-arrival looks up a rotated key,
	// so the stale run is simply never found (a miss), not invalidated.
	if s := c.Stats(); s.Invalidations != 0 {
		t.Errorf("Invalidations = %d, want 0 (epoch change rotates the key)", s.Invalidations)
	}
}

// Drop-and-recreate: a replacement table restarts its epoch, so its
// (name, schema, epoch) triple can exactly collide with the retired table's
// retained artifacts. The engine's table-identity qualifier keeps the two
// instances apart — the recreated table's run recomputes over the new data
// instead of being served the retired table's result.
func TestResultRunNotServedAcrossTableRecreate(t *testing.T) {
	mkTable := func(val func(i int) int64) *storage.Table {
		tbl := storage.NewTable("rc", storage.MustSchema(storage.Column{Name: "rv", Type: storage.Int64}))
		for i := 0; i < 64; i++ {
			tbl.MustAppend(val(i))
		}
		return tbl
	}
	schema := storage.MustSchema(storage.Column{Name: "rv", Type: storage.Int64})
	sumResultSpec := func(tbl *storage.Table) QuerySpec {
		return QuerySpec{
			Signature: "rc/a",
			Pivot:     0,
			Pivots: []PivotOption{
				{Pivot: 1, Model: core.Query{Name: "rc@agg", Below: []float64{2}, PivotW: 1, PivotS: 0.01}},
			},
			Nodes: []NodeSpec{
				ScanNode("rc/scan", tbl, nil, []string{"rv"}, 16),
				{Name: "rc/agg", Input: 0, Fingerprint: "rc/sum", Op: func(emit relop.Emit) (relop.Operator, error) {
					return relop.NewHashAgg(schema, nil, []relop.AggSpec{{Func: relop.Sum, Expr: relop.Col("rv"), As: "total"}}, emit)
				}},
			},
		}
	}
	e, _ := cacheEngine(t, artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute}, Options{Workers: 2})
	old := mkTable(func(i int) int64 { return int64(i) })
	first := runOne(t, e, sumResultSpec(old), joinOnly{})
	if got := first.MustCol("total").F64[0]; got != 2016 {
		t.Fatalf("cold run sum = %v, want 2016", got)
	}
	// Same name, same schema, same append count (equal epoch), new contents.
	replacement := mkTable(func(i int) int64 { return 1 })
	second := runOne(t, e, sumResultSpec(replacement), joinOnly{})
	if got := second.MustCol("total").F64[0]; got != 64 {
		t.Errorf("recreated table served the retired table's result: sum = %v, want 64", got)
	}
	if got := e.Counters().Cache.Hits; got != 0 {
		t.Errorf("CacheHits = %d, want 0 (recreated table must miss)", got)
	}
}

// The periodic sweep (Options.SweepInterval) reclaims wedged exchange
// entries on its own cadence and leaves unexpired cached artifacts alone —
// sweep-vs-cache non-interference.
func TestSweepIntervalTickerAndCacheNonInterference(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, c := cacheEngine(t,
		artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute},
		Options{Workers: 2, SweepInterval: 5 * time.Millisecond, SweepAge: time.Millisecond})

	// Seed the cache with a retired build.
	spec := semiSpec(bt, pt, "sw/a", nil)
	runOne(t, e, spec, buildAnchor{idx: 1})
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", s.Entries)
	}

	// A wedged, never-sealed build state only the sweep can reclaim.
	e.Exchange().PublishBuildState("sw/wedged")
	deadline := time.Now().Add(2 * time.Second)
	for e.Exchange().SweepReclaims() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic sweep never reclaimed the wedged build")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Many sweep ticks later the cached artifact is still live and serves
	// the next burst.
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("sweep evicted an unexpired cached artifact: %+v", s)
	}
	runOne(t, e, spec, buildAnchor{idx: 1})
	if got := e.Counters().HashBuilds; got != 1 {
		t.Errorf("HashBuilds = %d, want 1 (cache survived the sweeps)", got)
	}
}
