package profile

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/tpch"
)

func q6EngineRuns(t *testing.T) EngineRuns {
	t.Helper()
	db := tpch.MustGenerate(tpch.Config{ScaleFactor: 0.005, Seed: 42})
	// One worker: busy time is wall time inside a step, so whatever takes the
	// CPU from a stepping worker bills to the node it was running. With two
	// workers on a loaded 2-core host the pivot's busy time at m=8 ran 2–3×
	// its idle value in most runs, enough to pull the fitted intercept w to
	// its clamp at zero.
	return EngineRuns{
		Options:   engine.Options{Workers: 1},
		Spec:      tpch.MustEngineSpec(tpch.Q6, db, 0),
		Structure: tpch.Plan(tpch.Q6),
		NodeNames: map[string]string{
			"q6/scan-lineitem": tpch.PivotName,
			"q6/agg":           "agg",
		},
		Degrees: []int{1, 4, 8},
		Repeats: 5,
	}
}

func TestMeasureEngineShapes(t *testing.T) {
	cfg := q6EngineRuns(t)
	meas, err := MeasureEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(meas) != 3 {
		t.Fatalf("got %d measurements", len(meas))
	}
	for _, m := range meas {
		if m.BusyPerRound[tpch.PivotName] <= 0 {
			t.Errorf("m=%d: no pivot busy time", m.M)
		}
		if m.BusyPerRound["agg"] <= 0 {
			t.Errorf("m=%d: no agg busy time", m.M)
		}
	}
	// Each sharer runs its own aggregate, so the aggregate's per-round busy
	// time grows with m. How much it grows is a cost ratio the kernels set
	// (scheduling overhead against per-row work), so only the direction is
	// checked here.
	if meas[2].BusyPerRound["agg"] <= meas[0].BusyPerRound["agg"] {
		t.Errorf("agg busy did not grow across 8 sharers: m=1 %g, m=8 %g",
			meas[0].BusyPerRound["agg"], meas[2].BusyPerRound["agg"])
	}
	// The same measurements fit to a well-formed model: the scan's own work
	// w positive, the per-consumer cost s non-negative (it may clamp to zero,
	// see TestEstimateEngineQ6Decisions), and one positive aggregate above
	// the pivot.
	q, err := Estimate(stripWork(cfg.Structure), tpch.PivotName, meas)
	if err != nil {
		t.Fatal(err)
	}
	if q.PivotW <= 0 || q.PivotS < 0 || len(q.Above) != 1 || q.Above[0] <= 0 {
		t.Errorf("ill-formed fit %+v from measurements %+v", q, meas)
	}
}

// Online estimation on the live engine yields a model whose structure is
// sane (positive scan cost, positive per-consumer cost, small aggregate)
// and that prefers sharing Q6 on one processor but not on many — the same
// decisions the paper's offline procedure produces.
func TestEstimateEngineQ6Decisions(t *testing.T) {
	cfg := q6EngineRuns(t)
	q, err := EstimateEngine(cfg, tpch.PivotName)
	if err != nil {
		t.Fatal(err)
	}
	if q.PivotW <= 0 {
		t.Errorf("estimated pivot w = %g, want > 0", q.PivotW)
	}
	// Unlike the paper's Cordoba (where Q6's s exceeded w because every
	// scanned page was pushed to consumers), our engine scans pay the
	// predicate over the whole table but emit only the few selected rows,
	// so the physical per-consumer clone cost is near zero and wall-clock
	// noise can drive the fitted slope to the clamp. Require only that the
	// fit is non-negative; the decision checks below are the real bar.
	if q.PivotS < 0 {
		t.Errorf("estimated pivot s = %g, want ≥ 0", q.PivotS)
	}
	if len(q.Above) != 1 || q.Above[0] <= 0 {
		t.Errorf("estimated above = %v, want one positive aggregate", q.Above)
	}
	// Wall-clock scale is arbitrary; decisions are scale-free. On one
	// processor with heavy load, sharing a scan-dominated query must win.
	if !core.ShouldShare(q, 16, core.NewEnv(1)) {
		t.Errorf("online model refuses to share Q6 on 1 cpu: %+v", q)
	}
	// With processors far beyond the group's demand, sharing must lose
	// (serialization with nothing to gain).
	if core.ShouldShare(q, 16, core.NewEnv(1e6)) {
		t.Errorf("online model shares Q6 on unlimited cpus: %+v", q)
	}
}

func TestMeasureEngineRejectsBadDegrees(t *testing.T) {
	cfg := q6EngineRuns(t)
	cfg.Degrees = []int{0}
	if _, err := MeasureEngine(cfg); err == nil {
		t.Error("degree 0 accepted")
	}
}

func TestEnginePausedGroupFormation(t *testing.T) {
	db := tpch.MustGenerate(tpch.Config{ScaleFactor: 0.001, Seed: 3})
	e, err := engine.New(engine.Options{Workers: 1, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := tpch.MustEngineSpec(tpch.Q6, db, 0)
	var handles []*engine.Handle
	for i := 0; i < 5; i++ {
		h, err := e.Submit(spec, alwaysJoin{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Paused: nothing has run, so all five must be in one group.
	if got := e.GroupSize(spec.Signature); got != 5 {
		t.Fatalf("paused group size = %d, want 5", got)
	}
	e.Start()
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("sharer %d: %v", i, err)
		}
	}
}

type alwaysJoin struct{}

func (alwaysJoin) ShouldJoin(core.Query, int) bool { return true }
