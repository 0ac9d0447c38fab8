package engine_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relop"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// assertApproxResult compares batches row-for-row (both sides emit rows in
// deterministic group-key order), allowing float columns a tiny relative
// tolerance: clone-partitioned aggregation sums in a different order than
// the serial plan, which legitimately perturbs the last ulp of large sums.
func assertApproxResult(t *testing.T, what string, got, want *storage.Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
	}
	for c, col := range want.Schema.Cols {
		for i := 0; i < want.Len(); i++ {
			switch col.Type {
			case storage.Int64, storage.Date:
				if got.Vecs[c].I64[i] != want.Vecs[c].I64[i] {
					t.Fatalf("%s: row %d col %s = %d, want %d", what, i, col.Name, got.Vecs[c].I64[i], want.Vecs[c].I64[i])
				}
			case storage.String:
				if got.Vecs[c].Str[i] != want.Vecs[c].Str[i] {
					t.Fatalf("%s: row %d col %s = %q, want %q", what, i, col.Name, got.Vecs[c].Str[i], want.Vecs[c].Str[i])
				}
			case storage.Float64:
				g, w := got.Vecs[c].F64[i], want.Vecs[c].F64[i]
				if diff := math.Abs(g - w); diff > 1e-9*math.Max(1, math.Abs(w)) {
					t.Fatalf("%s: row %d col %s = %g, want %g", what, i, col.Name, g, w)
				}
			}
		}
	}
}

// Parallel clone execution must reproduce the serial result (up to
// summation-order float jitter) for every parallelizable plan, at every
// degree, on every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	db := testDB(t)
	for _, q := range []tpch.QueryID{tpch.Q1, tpch.Q6} {
		serial := tpch.MustEngineSpec(q, db, 0)
		eSerial := newEngine(t, engine.Options{Workers: 2})
		hs, err := eSerial.Submit(serial, nil)
		if err != nil {
			t.Fatalf("%s serial submit: %v", q, err)
		}
		want, err := hs.Wait()
		if err != nil {
			t.Fatalf("%s serial wait: %v", q, err)
		}
		for _, workers := range []int{1, 4} {
			for _, degree := range []int{2, 4} {
				e := newEngine(t, engine.Options{Workers: workers})
				spec := tpch.MustEngineSpec(q, db, 0)
				spec.Parallel = degree
				h, err := e.Submit(spec, nil)
				if err != nil {
					t.Fatalf("%s parallel submit: %v", q, err)
				}
				got, err := h.Wait()
				if err != nil {
					t.Fatalf("%s parallel wait: %v", q, err)
				}
				assertApproxResult(t, fmt.Sprintf("%s workers=%d degree=%d", q, workers, degree), got, want)
				// Degree clamps to the machine; a clamp to 1 falls back to
				// the serial pipeline (clones on one context are pure
				// overhead), so no parallel run is counted.
				wantClones := int64(degree)
				if degree > workers {
					wantClones = int64(workers)
				}
				wantRuns := int64(1)
				if wantClones <= 1 {
					wantRuns, wantClones = 0, 0
				}
				if e.Counters().ParallelRuns != wantRuns || e.Counters().ParallelClones != wantClones {
					t.Fatalf("%s workers=%d degree=%d: runs=%d clones=%d, want %d/%d",
						q, workers, degree, e.Counters().ParallelRuns, e.Counters().ParallelClones, wantRuns, wantClones)
				}
			}
		}
	}
}

// Concurrent parallel runs of the same signature get isolated morsel groups
// (no span stealing), and the registry drains when they finish.
func TestParallelConcurrentSameSignature(t *testing.T) {
	db := testDB(t)
	e := newEngine(t, engine.Options{Workers: 4})
	serialSpec := tpch.MustEngineSpec(tpch.Q6, db, 0)
	eRef := newEngine(t, engine.Options{Workers: 1})
	hRef, err := eRef.Submit(serialSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hRef.Wait()
	if err != nil {
		t.Fatal(err)
	}

	const runs = 4
	handles := make([]*engine.Handle, runs)
	for i := range handles {
		spec := tpch.MustEngineSpec(tpch.Q6, db, 0)
		spec.Parallel = 2
		h, err := e.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		assertApproxResult(t, fmt.Sprintf("concurrent run %d", i), got, want)
	}
	if got := e.Exchange().PartitionedInFlight(); got != 0 {
		t.Fatalf("partitioned groups still registered: %d", got)
	}
	if got := e.Counters().Active; got != 0 {
		t.Fatalf("active queries after drain: %d", got)
	}
}

// A ParallelPolicy drives degree selection when the spec does not pin one:
// a fixed-degree policy parallelizes scan-pivot plans and leaves
// non-parallelizable plans serial.
type fixedDegree struct{ d int }

func (fixedDegree) ShouldJoin(core.Query, int) bool { return false }
func (p fixedDegree) Degree(core.Query, int) int    { return p.d }

func TestParallelPolicyDrivesDegree(t *testing.T) {
	db := testDB(t)
	e := newEngine(t, engine.Options{Workers: 4})
	pol := fixedDegree{d: 3}

	h, err := e.Submit(tpch.MustEngineSpec(tpch.Q6, db, 0), pol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if e.Counters().ParallelRuns != 1 || e.Counters().ParallelClones != 3 {
		t.Fatalf("runs=%d clones=%d, want 1/3", e.Counters().ParallelRuns, e.Counters().ParallelClones)
	}

	// Q4's pivot is a join — not a linear scan chain — so the policy's
	// degree is ignored and the query runs serially.
	h, err = e.Submit(tpch.MustEngineSpec(tpch.Q4, db, 0), pol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if e.Counters().ParallelRuns != 1 {
		t.Fatalf("non-parallelizable plan counted as parallel run: %d", e.Counters().ParallelRuns)
	}
}

// An explicit degree on a non-parallelizable plan is a spec error, caught
// at submission.
func TestParallelDegreeValidation(t *testing.T) {
	db := testDB(t)
	spec := tpch.MustEngineSpec(tpch.Q4, db, 0)
	spec.Parallel = 2
	e := newEngine(t, engine.Options{Workers: 2})
	if _, err := e.Submit(spec, nil); err == nil {
		t.Fatal("parallel degree on join-pivot plan accepted")
	}
	spec = tpch.MustEngineSpec(tpch.Q6, db, 0)
	spec.Parallel = -1
	if _, err := e.Submit(spec, nil); err == nil {
		t.Fatal("negative parallel degree accepted")
	}
}

// threeNodeSpec builds a scan → filter → agg chain over lineitem: the
// filter is a partition-safe interior node, so the spec exercises the
// per-clone interior-operator wiring that the two-node Q1/Q6 plans never
// touch. failPartial makes the root's partial form error on its first
// push, for the failure-path test.
func threeNodeSpec(db *tpch.DB, failPartial bool) engine.QuerySpec {
	scanCols := []string{"l_quantity", "l_extendedprice"}
	scanSchema := storage.MustSchema(
		storage.Column{Name: "l_quantity", Type: storage.Float64},
		storage.Column{Name: "l_extendedprice", Type: storage.Float64},
	)
	pred := relop.Cmp{Op: relop.Lt, L: relop.Col("l_quantity"), R: relop.ConstFloat{V: 25}}
	specs := []relop.AggSpec{
		{Func: relop.Sum, Expr: relop.Col("l_extendedprice"), As: "sum_price"},
		{Func: relop.Count, As: "n"},
	}
	partial := func(emit relop.Emit) (relop.Operator, error) {
		return relop.NewPartialHashAgg(scanSchema, nil, specs, emit)
	}
	if failPartial {
		partial = func(emit relop.Emit) (relop.Operator, error) {
			inner, err := relop.NewPartialHashAgg(scanSchema, nil, specs, emit)
			if err != nil {
				return nil, err
			}
			return failingOp{Operator: inner}, nil
		}
	}
	return engine.QuerySpec{
		Signature: "test/three-node",
		Model:     core.Q6Paper(),
		Pivot:     0,
		Nodes: []engine.NodeSpec{
			engine.ScanNode("t3/scan", db.Lineitem, nil, scanCols, 0),
			{Name: "t3/filter", Input: 0, Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewFilter(pred, scanSchema, emit), nil
			}},
			{Name: "t3/agg", Input: 1,
				Op: func(emit relop.Emit) (relop.Operator, error) {
					return relop.NewHashAgg(scanSchema, nil, specs, emit)
				},
				Partial: partial,
				Merge: func(emit relop.Emit) (relop.Operator, error) {
					return relop.NewMergeHashAgg(scanSchema, nil, specs, emit)
				}},
		},
	}
}

// failingOp errors on the first push — a clone that dies mid-scan.
type failingOp struct{ relop.Operator }

func (failingOp) Push(*storage.Batch) error { return fmt.Errorf("injected clone failure") }

// Interior partition-safe operators must chain correctly inside every
// clone pipeline: a three-node scan → filter → agg plan at degree ≥ 2
// reproduces its serial result.
func TestParallelInteriorNodes(t *testing.T) {
	db := testDB(t)
	spec := threeNodeSpec(db, false)
	if !spec.CanParallel() {
		t.Fatal("three-node spec not parallelizable")
	}
	e := newEngine(t, engine.Options{Workers: 4})
	h, err := e.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, degree := range []int{2, 4} {
		par := threeNodeSpec(db, false)
		par.Parallel = degree
		h, err := e.Submit(par, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		assertApproxResult(t, fmt.Sprintf("three-node degree=%d", degree), got, want)
	}
}

// A clone failing mid-run must poison the handle with its error, close the
// shared scan state so no task wedges, and drain the registry.
func TestParallelFailurePropagates(t *testing.T) {
	db := testDB(t)
	spec := threeNodeSpec(db, true)
	spec.Parallel = 2
	e := newEngine(t, engine.Options{Workers: 2})
	h, err := e.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err == nil {
		t.Fatal("clone failure did not poison the result")
	}
	if got := e.Exchange().PartitionedInFlight(); got != 0 {
		t.Fatalf("partitioned groups still registered after failure: %d", got)
	}
	if got := e.Counters().Active; got != 0 {
		t.Fatalf("active queries after failed run: %d", got)
	}
	// The engine keeps serving after the failed run.
	ok, err := e.Submit(tpch.MustEngineSpec(tpch.Q6, db, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Wait(); err != nil {
		t.Fatalf("engine wedged after failed parallel run: %v", err)
	}
}

// CanParallel must hold for the scan-pivot plans and fail for join pivots.
func TestCanParallel(t *testing.T) {
	db := testDB(t)
	for q, want := range map[tpch.QueryID]bool{
		tpch.Q1:  true,
		tpch.Q6:  true,
		tpch.Q4:  false,
		tpch.Q13: false,
	} {
		if got := tpch.MustEngineSpec(q, db, 0).CanParallel(); got != want {
			t.Fatalf("%s CanParallel = %v, want %v", q, got, want)
		}
	}
}
