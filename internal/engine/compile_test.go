package engine

import (
	"errors"
	"testing"

	"repro/internal/relop"
	"repro/internal/storage"
)

// newPlain builds a bare engine without a cache.
func newPlain(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// A PlanKey-bearing family compiles once: the first submit misses, every
// repeat hits, and the hit serves the exact keys a fresh compile would.
func TestCompileCacheHitsOnRepeatedFamily(t *testing.T) {
	e := newPlain(t, Options{Workers: 2})
	tbl := scanTable(t, 64)
	for i := 0; i < 4; i++ {
		spec := sumSpec(tbl, "cc/a", "sum-v")
		spec.PlanKey = "cc/a"
		runOne(t, e, spec, nil)
	}
	if h, m := e.Counters().CompileHits, e.Counters().CompileMisses; h != 3 || m != 1 {
		t.Errorf("compile hits/misses = %d/%d, want 3/1", h, m)
	}
	spec := sumSpec(tbl, "cc/a", "sum-v")
	spec.PlanKey = "cc/a"
	cp := e.compileFor(spec)
	if got, want := cp.shareKeyAt(spec.Pivot), ShareKey(spec); got != want {
		t.Errorf("memoized share key = %q, want %q", got, want)
	}
}

// Specs without a PlanKey never consult or populate the cache: every submit
// is a miss and the map stays empty.
func TestCompileCacheSkippedWithoutPlanKey(t *testing.T) {
	e := newPlain(t, Options{Workers: 2})
	tbl := scanTable(t, 64)
	for i := 0; i < 3; i++ {
		runOne(t, e, sumSpec(tbl, "cc/b", ""), nil)
	}
	if h, m := e.Counters().CompileHits, e.Counters().CompileMisses; h != 0 || m != 3 {
		t.Errorf("compile hits/misses = %d/%d, want 0/3", h, m)
	}
	e.mu.Lock()
	n := len(e.compiled)
	e.mu.Unlock()
	if n != 0 {
		t.Errorf("compiled map holds %d entries, want 0", n)
	}
}

// A table epoch bump invalidates the memoized artifact: the next submit under
// the same PlanKey recompiles (a miss), and the fresh artifact carries the
// post-bump keys — a stale instantiated artifact never serves.
func TestCompileCacheEpochInvalidation(t *testing.T) {
	e := newPlain(t, Options{Workers: 2})
	tbl := scanTable(t, 64)
	mk := func() QuerySpec {
		s := sumSpec(tbl, "cc/c", "sum-v")
		s.PlanKey = "cc/c"
		return s
	}
	runOne(t, e, mk(), nil)
	staleKey := ShareKey(mk())
	tbl.BumpEpoch()
	runOne(t, e, mk(), nil)
	if h, m := e.Counters().CompileHits, e.Counters().CompileMisses; h != 0 || m != 2 {
		t.Errorf("compile hits/misses = %d/%d, want 0/2 (epoch bump forces recompile)", h, m)
	}
	cp := e.compileFor(mk())
	if cp.shareKeyAt(0) == staleKey {
		t.Error("post-bump artifact still serves the pre-bump key")
	}
}

// Reusing a PlanKey for a structurally different spec — the caller breaking
// the contract — degrades to a recompile, never to serving the other plan's
// keys.
func TestCompileCachePlanKeyMisuseRecompiles(t *testing.T) {
	e := newPlain(t, Options{Workers: 2})
	tbl := scanTable(t, 64)
	a := sumSpec(tbl, "cc/d", "sum-v")
	a.PlanKey = "cc/shared"
	runOne(t, e, a, nil)

	// Same PlanKey, different page quantum: the structural guard must catch
	// the mismatch and compile b on its own terms.
	b := sumSpec(tbl, "cc/d", "sum-v")
	b.PlanKey = "cc/shared"
	b.Nodes[0].Scan.PageRows = 8
	cp := e.compileFor(b)
	if got, want := cp.shareKeyAt(0), ShareKey(b); got != want {
		t.Errorf("misused PlanKey served the other plan's key %q, want %q", got, want)
	}
	if h, m := e.Counters().CompileHits, e.Counters().CompileMisses; h != 0 || m != 2 {
		t.Errorf("compile hits/misses = %d/%d, want 0/2", h, m)
	}
}

// The structural guard covers scan predicates and projections: scan nodes
// carry no explicit Fingerprint, so a PlanKey reused across parameterized
// predicate variants — the classic misuse — must recompile per variant, and
// each member must compute its own result instead of being merged into the
// other variant's group.
func TestCompileCacheGuardsScanPredAndCols(t *testing.T) {
	e := newPlain(t, Options{Workers: 2, StartPaused: true})
	tbl := scanTable(t, 64)
	mk := func(hi int64) QuerySpec {
		s := sumSpec(tbl, "cc/pred", "sum-v")
		s.PlanKey = "cc/pred-family"
		s.Nodes[0].Scan.Pred = relop.Cmp{Op: relop.Lt, L: relop.Col("v"), R: relop.ConstInt{V: hi}}
		return s
	}
	ha, err := e.Submit(mk(10), joinOnly{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := e.Submit(mk(20), joinOnly{})
	if err != nil {
		t.Fatal(err)
	}
	if h := e.Counters().CompileHits; h != 0 {
		t.Errorf("CompileHits = %d, want 0 (predicate change under one PlanKey must recompile)", h)
	}
	e.Start()
	ra, err := ha.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := hb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Σ 0..9 and Σ 0..19: a guard miss would hand the v<20 member the v<10
	// group's pages and both would sum 45.
	if got := ra.MustCol("total").F64[0]; got != 45 {
		t.Errorf("v<10 sum = %v, want 45", got)
	}
	if got := rb.MustCol("total").F64[0]; got != 190 {
		t.Errorf("v<20 sum = %v, want 190 (member served the other variant's pages)", got)
	}

	// An equal-valued (but freshly constructed) predicate still hits warm.
	cp := e.compileFor(mk(20))
	if h := e.Counters().CompileHits; h != 1 {
		t.Errorf("CompileHits after equal-pred resubmit = %d, want 1", h)
	}
	if got, want := cp.shareKeyAt(0), ShareKey(mk(20)); got != want {
		t.Errorf("warm artifact key %q, want %q", got, want)
	}

	// A projection change under the same key recompiles too.
	wider := mk(20)
	wider.Nodes[0].Scan.Cols = nil
	cp = e.compileFor(wider)
	if got, want := cp.shareKeyAt(0), ShareKey(wider); got != want {
		t.Errorf("projection change served the other plan's key %q, want %q", got, want)
	}
	if h := e.Counters().CompileHits; h != 1 {
		t.Errorf("CompileHits after projection change = %d, want still 1", h)
	}
}

// Models and hints ride the incoming spec, not the artifact: a caller that
// refreshes its cost models under an unchanged PlanKey keeps the warm hit
// and has admission priced with the new estimates.
func TestWarmHitServesRefreshedModels(t *testing.T) {
	e := newPlain(t, Options{Workers: 2})
	_, pt := buildTables(t, 4, 64)
	mk := func(w float64) QuerySpec {
		s := resultSpec(pt, "cc/model")
		s.PlanKey = "cc/model"
		for i := range s.Pivots {
			s.Pivots[i].Model.PivotW = w
		}
		s.Model.PivotW = w
		return s
	}
	e.compileFor(mk(1))
	refreshed := mk(42)
	cp := e.compileFor(refreshed)
	if h, m := e.Counters().CompileHits, e.Counters().CompileMisses; h != 1 || m != 1 {
		t.Fatalf("compile hits/misses = %d/%d, want 1/1 (a model refresh must not recompile)", h, m)
	}
	for j := range cp.opts {
		if got := cp.optModel(refreshed, j); got.PivotW != 42 {
			t.Errorf("opt %d model PivotW = %v, want the refreshed 42", j, got.PivotW)
		}
	}
	if !cp.resultOK {
		t.Fatal("resultSpec must offer a root result-run option")
	}
	if got := cp.resultModelFor(refreshed); got.PivotW != 42 {
		t.Errorf("result model PivotW = %v, want the refreshed 42", got.PivotW)
	}
}

// A transient root-schema resolution error is reported to its submit but
// never latched: the next submit retries, and only a success memoizes.
func TestCompiledSchemaRetriesAfterError(t *testing.T) {
	spec := sumSpec(scanTable(t, 16), "sr/a", "")
	cp := Compile(spec)
	calls := 0
	resolve := func(QuerySpec) (storage.Schema, error) {
		calls++
		if calls == 1 {
			return storage.Schema{}, errors.New("transient factory failure")
		}
		return storage.MustSchema(storage.Column{Name: "total", Type: storage.Float64}), nil
	}
	if _, err := cp.schema(spec, resolve); err == nil {
		t.Fatal("first resolve's error not reported")
	}
	s, err := cp.schema(spec, resolve)
	if err != nil {
		t.Fatalf("resolve not retried after a transient error: %v", err)
	}
	if len(s.Cols) != 1 || s.Cols[0].Name != "total" {
		t.Fatalf("retried schema = %v", s)
	}
	if _, err := cp.schema(spec, resolve); err != nil {
		t.Fatalf("memoized schema errored: %v", err)
	}
	if calls != 2 {
		t.Errorf("resolver ran %d times, want 2 (success latches)", calls)
	}
}

// The memoized artifact's precomputed pivot-option keys and epochs agree
// with a from-scratch canonicalization at every candidate level.
func TestCompiledKeysMatchFreshCanonicalization(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	spec := semiSpec(bt, pt, "cc/e", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}})
	cp := Compile(spec)
	if len(cp.opts) == 0 {
		t.Fatal("spec offers no pivot candidates")
	}
	for j, opt := range cp.opts {
		want := shareKeyAt(spec, opt.Pivot)
		if opt.Build {
			want = buildShareKeyAt(spec, opt.Pivot)
		}
		if cp.keys[j] != want {
			t.Errorf("opt %d (pivot %d, build=%v): key %q, want %q", j, opt.Pivot, opt.Build, cp.keys[j], want)
		}
		if got, want := cp.epochs[j], specEpochAt(spec, opt.Pivot); got != want {
			t.Errorf("opt %d: epoch %d, want %d", j, got, want)
		}
	}
	key, model, ok := resultCacheOption(spec)
	if ok != cp.resultOK || key != cp.resultKey || model.Name != cp.resultModelFor(spec).Name {
		t.Errorf("result option (%q,%q,%v) disagrees with fresh (%q,%q,%v)",
			cp.resultKey, cp.resultModelFor(spec).Name, cp.resultOK, key, model.Name, ok)
	}
}

// The cache caps its footprint: overflowing maxCompiled distinct PlanKeys
// resets the map rather than growing without bound.
func TestCompileCacheBounded(t *testing.T) {
	e := newPlain(t, Options{Workers: 2})
	tbl := scanTable(t, 16)
	for i := 0; i <= maxCompiled; i++ {
		s := sumSpec(tbl, "cc/f", "")
		s.PlanKey = "cc/f/" + itoa(i)
		e.compileFor(s)
	}
	e.mu.Lock()
	n := len(e.compiled)
	e.mu.Unlock()
	if n > maxCompiled {
		t.Errorf("compiled map holds %d entries, want ≤ %d", n, maxCompiled)
	}
}

// itoa is a minimal strconv.Itoa stand-in to keep the imports small.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}
