package workload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/tpch"
)

func q1() core.Query { return tpch.Model(tpch.Q1) }
func q4() core.Query { return tpch.Model(tpch.Q4) }

func TestPolicyKindString(t *testing.T) {
	if NeverShare.String() != "never" || AlwaysShare.String() != "always" || ModelShare.String() != "model" {
		t.Error("policy labels wrong")
	}
}

// On 2 processors sharing is always beneficial: always ≥ model ≥ never
// (Figure 6 left).
func TestFigure6TwoProcessorOrdering(t *testing.T) {
	pts := Figure6Series(q1(), q4(), 20, 2, 4)
	for _, pt := range pts {
		if pt.Model < pt.Never-1e-9 {
			t.Errorf("f=%.2f: model %g < never %g on 2 cpus", pt.FractionQ4, pt.Model, pt.Never)
		}
		if pt.Always < pt.Never-1e-9 {
			t.Errorf("f=%.2f: always %g < never %g on 2 cpus", pt.FractionQ4, pt.Always, pt.Never)
		}
		// Model tracks always closely when sharing is uniformly good.
		if pt.Model < 0.9*pt.Always {
			t.Errorf("f=%.2f: model %g far below always %g on 2 cpus", pt.FractionQ4, pt.Model, pt.Always)
		}
	}
}

// On 32 processors the orderings invert for scan-heavy work: never beats
// always (paper: 165 vs 80 q/min) and model beats both (200 q/min) — the
// 20% / 2.5x headline.
func TestFigure6ThirtyTwoProcessorOrdering(t *testing.T) {
	pts := Figure6Series(q1(), q4(), 20, 32, 4)
	var sumNever, sumAlways, sumModel float64
	for _, pt := range pts {
		if pt.Model < pt.Never-1e-9 {
			t.Errorf("f=%.2f: model %g < never %g", pt.FractionQ4, pt.Model, pt.Never)
		}
		if pt.Model < pt.Always-1e-9 {
			t.Errorf("f=%.2f: model %g < always %g", pt.FractionQ4, pt.Model, pt.Always)
		}
		sumNever += pt.Never
		sumAlways += pt.Always
		sumModel += pt.Model
	}
	// Average ratios approximate the paper's: model/never ≈ 1.2x,
	// model/always ≈ 2.5x. Accept generous bands — the shape is the claim.
	if r := sumModel / sumNever; r < 1.05 || r > 1.8 {
		t.Errorf("model/never average = %g, want ≈ 1.2 (within [1.05, 1.8])", r)
	}
	if r := sumModel / sumAlways; r < 1.5 {
		t.Errorf("model/always average = %g, want ≥ 1.5 (paper: ≈ 2.5)", r)
	}
	// At the pure-Q1 end, always-share collapses hardest.
	if pts[0].Always >= pts[0].Never {
		t.Errorf("pure Q1 on 32 cpus: always %g ≥ never %g", pts[0].Always, pts[0].Never)
	}
	// At the pure-Q4 end, sharing wins even on 32 processors.
	last := pts[len(pts)-1]
	if last.Always < last.Never {
		t.Errorf("pure Q4 on 32 cpus: always %g < never %g", last.Always, last.Never)
	}
}

// The model policy never predicts worse than both static policies — it can
// always fall back to either configuration.
func TestModelPolicyDominatesStatic(t *testing.T) {
	for _, n := range []float64{1, 2, 8, 16, 32} {
		for _, clients := range []int{4, 20, 48} {
			pts := Figure6Series(q1(), q4(), clients, n, 4)
			for _, pt := range pts {
				if pt.Model < math.Max(pt.Never, pt.Always)-1e-9 {
					t.Errorf("n=%g clients=%d f=%.2f: model %g below best static %g",
						n, clients, pt.FractionQ4, pt.Model, math.Max(pt.Never, pt.Always))
				}
			}
		}
	}
}

func TestPredictThroughputEmptyClass(t *testing.T) {
	mix := Mix{Classes: []Class{{Name: "Q1", Model: q1(), Clients: 0}}}
	if x := PredictThroughput(mix, 4, AlwaysShare); x != 0 {
		t.Errorf("empty mix throughput = %g", x)
	}
}

// Unsaturated system: all units run at peak; throughput independent of
// policy search fairness details.
func TestPredictThroughputUnsaturated(t *testing.T) {
	mix := Mix{Classes: []Class{{Name: "Q1", Model: q1(), Clients: 1}}}
	x := PredictThroughput(mix, 1000, NeverShare)
	want := 1 / q1().PMax()
	if math.Abs(x-want) > 1e-9 {
		t.Errorf("throughput = %g, want %g", x, want)
	}
}
