package engine_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// alwaysShare joins any group; neverShare is expressed as a nil policy.
type alwaysShare struct{}

func (alwaysShare) ShouldJoin(core.Query, int) bool { return true }

func testDB(t *testing.T) *tpch.DB {
	t.Helper()
	return tpch.MustGenerate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
}

func newEngine(t *testing.T, opts engine.Options) *engine.Engine {
	t.Helper()
	e, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// batchKeyRows renders a batch as sorted strings for order-insensitive
// comparison.
func batchKeyRows(b *storage.Batch) []string {
	rows := make([]string, b.Len())
	for i := 0; i < b.Len(); i++ {
		s := ""
		for c, col := range b.Schema.Cols {
			switch col.Type {
			case storage.Int64, storage.Date:
				s += fmt.Sprintf("|%d", b.Vecs[c].I64[i])
			case storage.Float64:
				s += fmt.Sprintf("|%.6f", b.Vecs[c].F64[i])
			case storage.String:
				s += "|" + b.Vecs[c].Str[i]
			}
		}
		rows[i] = s
	}
	sort.Strings(rows)
	return rows
}

func assertSameResult(t *testing.T, what string, got, want *storage.Batch) {
	t.Helper()
	g, w := batchKeyRows(got), batchKeyRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

// Engine execution must agree with the single-threaded reference runners for
// every query, across processor counts.
func TestEngineMatchesReference(t *testing.T) {
	db := testDB(t)
	for _, q := range tpch.AllQueries {
		if q == tpch.Q13 {
			// Q13's engine plan keeps c_count as the aggregate's float
			// column; TestEngineQ13Distribution compares it value-wise.
			continue
		}
		want, err := tpch.Run(q, db)
		if err != nil {
			t.Fatalf("%s reference: %v", q, err)
		}
		for _, workers := range []int{1, 4} {
			e := newEngine(t, engine.Options{Workers: workers})
			h, err := e.Submit(tpch.MustEngineSpec(q, db, 0), nil)
			if err != nil {
				t.Fatalf("%s submit: %v", q, err)
			}
			got, err := h.Wait()
			if err != nil {
				t.Fatalf("%s wait: %v", q, err)
			}
			assertSameResult(t, fmt.Sprintf("%s workers=%d", q, workers), got, want)
		}
	}
}

// renderExact renders a batch row by row in emitted order with floats as
// their exact bit patterns, so equal renderings mean byte-identical results.
func renderExact(b *storage.Batch) string {
	var sb strings.Builder
	for i := 0; i < b.Len(); i++ {
		for c, col := range b.Schema.Cols {
			switch col.Type {
			case storage.Int64, storage.Date:
				fmt.Fprintf(&sb, "|%d", b.Vecs[c].I64[i])
			case storage.Float64:
				fmt.Fprintf(&sb, "|%x", math.Float64bits(b.Vecs[c].F64[i]))
			case storage.String:
				fmt.Fprintf(&sb, "|%q", b.Vecs[c].Str[i])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fused execution (the default) on two workers must be byte-identical to the
// unfused single-worker reference for every query and every family variant:
// fusion changes where operators run, never what crosses a segment boundary,
// and an unshared submission drains its pages in a fixed order on either
// topology, so any divergence is a fusion bug rather than float jitter.
func TestEngineFusionMatchesStaged(t *testing.T) {
	db := testDB(t)
	var specs []engine.QuerySpec
	for _, q := range tpch.AllQueries {
		specs = append(specs, tpch.MustEngineSpec(q, db, 0))
	}
	for _, f := range []struct {
		variants int
		spec     func(*tpch.DB, int, int) engine.QuerySpec
	}{
		{tpch.Q1FamilyVariants, tpch.Q1FamilySpec},
		{tpch.Q6FamilyVariants, tpch.Q6FamilySpec},
		{tpch.Q4FamilyVariants, tpch.Q4FamilySpec},
		{tpch.Q13FamilyVariants, tpch.Q13FamilySpec},
	} {
		for v := 0; v < f.variants; v++ {
			specs = append(specs, f.spec(db, 0, v))
		}
	}
	fused := newEngine(t, engine.Options{Workers: 2})
	staged := newEngine(t, engine.Options{Workers: 1, NoFusion: true})
	run := func(t *testing.T, e *engine.Engine, spec engine.QuerySpec) *storage.Batch {
		t.Helper()
		h, err := e.Submit(spec, nil)
		if err != nil {
			t.Fatalf("%s submit: %v", spec.Signature, err)
		}
		b, err := h.Wait()
		if err != nil {
			t.Fatalf("%s wait: %v", spec.Signature, err)
		}
		return b
	}
	// One subtest per plan, so a failure names the variant that differs and
	// -run can target a single family.
	for _, spec := range specs {
		t.Run(spec.Signature, func(t *testing.T) {
			got, want := renderExact(run(t, fused, spec)), renderExact(run(t, staged, spec))
			if got != want {
				t.Errorf("fused 2-worker result differs from the unfused 1-worker reference\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// Q13 engine output uses a float c_count column; spot-check its distribution
// against the reference result's integer form.
func TestEngineQ13Distribution(t *testing.T) {
	db := testDB(t)
	want, err := tpch.RunQ13(db)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, engine.Options{Workers: 2})
	h, err := e.Submit(tpch.MustEngineSpec(tpch.Q13, db, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	wantDist := map[int64]int64{}
	for i := 0; i < want.Len(); i++ {
		wantDist[want.MustCol("c_count").I64[i]] = want.MustCol("custdist").I64[i]
	}
	for i := 0; i < got.Len(); i++ {
		c := int64(math.Round(got.MustCol("c_count").F64[i]))
		if got.MustCol("custdist").I64[i] != wantDist[c] {
			t.Errorf("c_count=%d: custdist=%d, want %d", c, got.MustCol("custdist").I64[i], wantDist[c])
		}
	}
}

// Sharing: identical queries submitted together under always-share must
// merge into one group and all receive complete, correct results — under
// both pivot fan-out disciplines (refcounted share and eager clone).
func TestEngineSharedExecutionCorrect(t *testing.T) {
	db := testDB(t)
	want, err := tpch.RunQ6(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []engine.FanOutMode{engine.FanOutShare, engine.FanOutClone} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t, engine.Options{Workers: 2, FanOut: mode})
			const m = 6
			handles := make([]*engine.Handle, m)
			for i := range handles {
				h, err := e.Submit(tpch.MustEngineSpec(tpch.Q6, db, 0), alwaysShare{})
				if err != nil {
					t.Fatal(err)
				}
				handles[i] = h
			}
			for i, h := range handles {
				got, err := h.Wait()
				if err != nil {
					t.Fatalf("sharer %d: %v", i, err)
				}
				assertSameResult(t, fmt.Sprintf("sharer %d", i), got, want)
			}
		})
	}
}

// Join-at-pivot sharing (Q4: pivot is the semi-join) must also produce
// correct results for every sharer.
func TestEngineSharedJoinPivot(t *testing.T) {
	db := testDB(t)
	want, err := tpch.RunQ4(db)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, engine.Options{Workers: 4})
	const m = 4
	handles := make([]*engine.Handle, m)
	for i := range handles {
		h, err := e.Submit(tpch.MustEngineSpec(tpch.Q4, db, 0), alwaysShare{})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("sharer %d: %v", i, err)
		}
		assertSameResult(t, fmt.Sprintf("q4 sharer %d", i), got, want)
	}
}

// Group growth is visible until the pivot produces; sealed groups stop
// accepting members but new groups form.
func TestEngineGroupLifecycle(t *testing.T) {
	db := testDB(t)
	e := newEngine(t, engine.Options{Workers: 1})
	spec := tpch.MustEngineSpec(tpch.Q6, db, 0)
	var handles []*engine.Handle
	for i := 0; i < 3; i++ {
		h, err := e.Submit(spec, alwaysShare{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// All three land in one group or several (depending on how fast the
	// pivot starts); every handle must still complete correctly.
	want, err := tpch.RunQ6(db)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
		assertSameResult(t, fmt.Sprintf("lifecycle %d", i), got, want)
	}
	if c := e.Completed(); c != 3 {
		t.Errorf("Completed = %d, want 3", c)
	}
}

// Never-share (nil policy) executes every submission independently; group
// size for the signature stays unobservable (no joinable groups).
func TestEngineNeverShare(t *testing.T) {
	db := testDB(t)
	e := newEngine(t, engine.Options{Workers: 2})
	spec := tpch.MustEngineSpec(tpch.Q6, db, 0)
	h1, err := e.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gs := e.GroupSize("tpch/q6"); gs != 0 {
		t.Errorf("never-share registered a joinable group (size %d)", gs)
	}
	h2, err := e.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err1 := h1.Wait()
	r2, err2 := h2.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("waits: %v %v", err1, err2)
	}
	assertSameResult(t, "never-share", r1, r2)
}

// A policy that refuses keeps queries independent even when groups exist.
type refuseShare struct{}

func (refuseShare) ShouldJoin(core.Query, int) bool { return false }

func TestEnginePolicyRefusal(t *testing.T) {
	db := testDB(t)
	e := newEngine(t, engine.Options{Workers: 1})
	spec := tpch.MustEngineSpec(tpch.Q6, db, 0)
	h1, err := e.Submit(spec, refuseShare{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(spec, refuseShare{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	if c := e.Completed(); c != 2 {
		t.Errorf("Completed = %d", c)
	}
}

// Invalid specs are rejected up front.
func TestEngineRejectsInvalidSpec(t *testing.T) {
	e := newEngine(t, engine.Options{Workers: 1})
	if _, err := e.Submit(engine.QuerySpec{}, nil); err == nil {
		t.Error("empty spec accepted")
	}
	bad := engine.QuerySpec{
		Signature: "bad",
		Pivot:     0,
		Nodes:     []engine.NodeSpec{{Name: "both"}},
	}
	if _, err := e.Submit(bad, nil); err == nil {
		t.Error("kindless node accepted")
	}
}

// Concurrent submissions from many goroutines must not race or deadlock.
func TestEngineConcurrentSubmissions(t *testing.T) {
	db := testDB(t)
	e := newEngine(t, engine.Options{Workers: 4})
	want, err := tpch.RunQ6(db)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := e.Submit(tpch.MustEngineSpec(tpch.Q6, db, 0), alwaysShare{})
			if err != nil {
				errs <- err
				return
			}
			got, err := h.Wait()
			if err != nil {
				errs <- err
				return
			}
			g, w := batchKeyRows(got), batchKeyRows(want)
			if len(g) != len(w) || g[0] != w[0] {
				errs <- fmt.Errorf("result mismatch")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A closed loop — each client resubmits from its previous query's
// completion callback, the way the server and the benchmark drive the
// engine — runs every client of a mixed Q1/Q6 population to the end under
// each policy, and every result matches its reference. Under the
// pivot-selecting policy the Q1 clients, submitted together, merge at the
// aggregate (pivot level 1).
func TestEngineClosedLoop(t *testing.T) {
	db := testDB(t)
	classes := []tpch.QueryID{tpch.Q1, tpch.Q6}
	specs := make(map[tpch.QueryID]engine.QuerySpec)
	want := make(map[tpch.QueryID]string)
	for _, q := range classes {
		specs[q] = tpch.MustEngineSpec(q, db, 0)
		ref, err := tpch.Run(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = strings.Join(batchKeyRows(ref), "\n")
	}
	for _, tc := range []struct {
		name string
		pol  engine.SharePolicy
	}{
		{"never", nil},
		{"always", policy.Always{}},
		{"model", policy.ModelGuided{Env: core.NewEnv(4)}},
		{"subplan", policy.ModelGuided{Env: core.NewEnv(2), PivotSelect: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, engine.Options{Workers: 4, StartPaused: true})
			const clients, rounds = 4, 5
			var (
				mu   sync.Mutex
				done = make(map[tpch.QueryID]int)
				errs []error
				wg   sync.WaitGroup
			)
			fail := func(err error) {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				wg.Done()
			}
			var loop func(q tpch.QueryID, left int)
			loop = func(q tpch.QueryID, left int) {
				_, err := e.SubmitFn(specs[q], tc.pol, func(b *storage.Batch, err error) {
					if err == nil && strings.Join(batchKeyRows(b), "\n") != want[q] {
						err = fmt.Errorf("%s: result differs from reference", q)
					}
					if err != nil {
						fail(err)
						return
					}
					mu.Lock()
					done[q]++
					mu.Unlock()
					if left == 1 {
						wg.Done()
						return
					}
					loop(q, left-1)
				})
				if err != nil {
					fail(err)
				}
			}
			for i := 0; i < clients; i++ {
				wg.Add(1)
				loop(classes[i%len(classes)], rounds)
			}
			e.Start()
			wg.Wait()
			for _, err := range errs {
				t.Error(err)
			}
			for _, q := range classes {
				if got, want := done[q], rounds*clients/len(classes); got != want {
					t.Errorf("%s: %d completions, want %d", q, got, want)
				}
			}
			if tc.name == "subplan" && e.PivotLevelJoins()[1] == 0 {
				t.Errorf("no joins at the aggregate level: %v", e.PivotLevelJoins())
			}
		})
	}
}

// Profiling accumulates busy time per stage.
func TestEngineProfiling(t *testing.T) {
	db := testDB(t)
	e := newEngine(t, engine.Options{Workers: 2, Profile: true})
	h, err := e.Submit(tpch.MustEngineSpec(tpch.Q6, db, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	busy := e.BusyTimes()
	if busy["q6/scan-lineitem"] <= 0 {
		t.Errorf("no busy time recorded for the scan: %v", busy)
	}
	if busy["q6/agg"] <= 0 {
		t.Errorf("no busy time recorded for the aggregate: %v", busy)
	}
}
