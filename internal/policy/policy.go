// Package policy implements the three work-sharing policies Section 8
// compares: always-share, never-share, and the model-guided policy that
// evaluates the analytical model at runtime and admits a query to a sharing
// group only when the model predicts a benefit.
package policy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// Always applies work sharing whenever possible.
type Always struct{}

// ShouldJoin implements engine.SharePolicy: always yes.
func (Always) ShouldJoin(core.Query, int) bool { return true }

// ShouldAttach implements engine.AttachPolicy: attach whenever any of the
// scan is still ahead of the cursor.
func (Always) ShouldAttach(_ core.Query, _ int, remaining float64) bool { return remaining > 0 }

// Never executes every query independently.
type Never struct{}

// ShouldJoin implements engine.SharePolicy: always no.
func (Never) ShouldJoin(core.Query, int) bool { return false }

// ShouldAttach implements engine.AttachPolicy: never attach.
func (Never) ShouldAttach(core.Query, int, float64) bool { return false }

// Parallel never shares and runs every parallelizable query as a fixed
// number of partitioned clones — the pure intra-query-parallelism baseline
// the ablation benchmarks pit against serial sharing.
type Parallel struct {
	// Clones is the clone degree every query requests (values below 2 leave
	// execution serial; the engine clamps to its worker count).
	Clones int
}

// ShouldJoin implements engine.SharePolicy: never share.
func (Parallel) ShouldJoin(core.Query, int) bool { return false }

// ShouldAttach implements engine.AttachPolicy: never attach.
func (Parallel) ShouldAttach(core.Query, int, float64) bool { return false }

// Degree implements engine.ParallelPolicy: the fixed clone degree.
func (p Parallel) Degree(core.Query, int) int { return p.Clones }

// ModelGuided admits a query to a group of prospective size m only when the
// model predicts shared execution of m copies beats independent execution on
// this hardware: Z(m, n) > 1 (Section 8.1's admission test; if no group
// permits sharing the engine starts the query independently, where it may be
// joined later). With MaxDegree > 1 it becomes the hybrid
// share-vs-parallelize policy: every admission evaluates all three regimes
// (serial shared cost s·m, parallel unshared cost w/d under the current
// load, serial alone) via core.Choose and the query shares only when
// sharing is the predicted-fastest, parallelizes when splitting is, and
// runs alone otherwise.
type ModelGuided struct {
	// Env is the hardware the model evaluates against.
	Env core.Env
	// MaxDegree caps the clone degree of the parallelize arm; 0 or 1
	// disables it, restoring the paper's pure share-vs-alone test.
	MaxDegree int
	// PivotSelect enables model-guided pivot selection: when a query offers
	// several candidate sharing pivots, a fresh group anchors at the level
	// whose shared execution the model predicts fastest under the current
	// load (engine.PivotPolicy). Candidates include build-side pivots
	// (engine.PivotOption.Build): their models are compiled at the build —
	// w_b once per group, a near-zero table hand-off s_b, probe work per
	// member (core's build-share model, see core.BuildShareZ) — so the same
	// BestPivot comparison decides between fan-out levels and amortizing
	// one hash build over the group's probes. Off, groups anchor at the
	// spec's declared pivot and candidates only matter for joining existing
	// groups.
	PivotSelect bool
}

// ShouldJoin implements engine.SharePolicy.
func (p ModelGuided) ShouldJoin(q core.Query, m int) bool {
	if p.MaxDegree > 1 {
		dec, _, _ := core.Choose(q, m, p.MaxDegree, p.Env)
		return dec == core.Share
	}
	return core.ShouldShare(q, m, p.Env)
}

// ShouldJoinUnderLoad implements engine.LoadAwarePolicy. The hybrid policy
// evaluates the share arm at the larger of the prospective group size and
// the engine's current load: under closed-loop traffic a group grows one
// arrival at a time, and judging sharing at m=2 while eight queries are in
// flight would starve the group the model wants at load 8. The parallelize
// arm competes only when the plan can actually run as clones — refusing to
// share in favor of an infeasible regime would degrade to run-alone.
// Without a parallel arm this reduces to the plain m-based Section 8 test.
func (p ModelGuided) ShouldJoinUnderLoad(q core.Query, m, load int, canParallel bool) bool {
	if p.MaxDegree <= 1 {
		return p.ShouldJoin(q, m)
	}
	if load > m {
		m = load
	}
	maxD := 1
	if canParallel {
		maxD = p.MaxDegree
	}
	dec, _, _ := core.Choose(q, m, maxD, p.Env)
	return dec == core.Share
}

// ShouldAttachUnderLoad implements engine.LoadAwarePolicy for in-flight
// admission. The hybrid evaluates the attach at the effective group size
// (the larger of the live member count and the engine load, since under
// closed-loop traffic everyone who keeps arriving will face the same
// choice) with the per-consumer cost inflated by the wrap-around re-scan,
// and attaches only when that adjusted shared rate beats both unshared
// arms — running the copies alone and splitting each into clones. Without
// a parallel arm this reduces to the plain ShouldAttach test.
func (p ModelGuided) ShouldAttachUnderLoad(q core.Query, m int, remaining float64, load int, canParallel bool) bool {
	if p.MaxDegree <= 1 {
		return p.ShouldAttach(q, m, remaining)
	}
	if remaining <= 0 || m < 1 {
		return false
	}
	if remaining > 1 {
		remaining = 1
	}
	eff := m
	if load > eff {
		eff = load
	}
	xs := core.SharedX(core.AttachAdjusted(q, eff, remaining), eff, p.Env)
	if xs <= core.UnsharedX(q, eff, p.Env) {
		return false
	}
	if canParallel {
		for d := 2; d <= p.MaxDegree; d++ {
			if core.ParallelX(q, eff, d, p.Env) >= xs {
				return false
			}
		}
	}
	return true
}

// ChoosePivot implements engine.PivotPolicy: the candidate level (highest
// first, as the engine orders them) whose shared execution the model
// predicts fastest at the anticipated group size — the engine's current
// load, since under closed-loop traffic everyone active will face the same
// merge opportunity. A negative return keeps the spec's declared pivot,
// which is what a non-selecting policy gets.
func (p ModelGuided) ChoosePivot(cands []core.Query, load int) int {
	if !p.PivotSelect {
		return -1
	}
	m := load
	if m < 2 {
		m = 2 // a group is only worth anchoring if someone may join
	}
	best, _ := core.BestPivot(cands, m, p.Env)
	return best
}

// Degree implements engine.ParallelPolicy: the clone degree for a query
// executing unshared under the given load, 1 unless the model predicts
// parallelizing beats both sharing and running alone.
func (p ModelGuided) Degree(q core.Query, load int) int {
	if p.MaxDegree <= 1 {
		return 1
	}
	dec, d, _ := core.Choose(q, load, p.MaxDegree, p.Env)
	if dec == core.Parallelize {
		return d
	}
	return 1
}

// ShouldAttach implements engine.AttachPolicy, extending the Section 8
// admission test to mid-flight attachment. A joiner that attaches with
// fraction f of the scan remaining rides the shared cursor for only that
// fraction; the missed prefix is re-scanned on the wrap-around lap, making
// the pivot re-execute (1-f) of its per-progress work w for the group's
// benefit of one extra sharer. Amortized over the m consumers, that inflates
// the model's per-consumer cost s to s + (1-f)·w/m (equivalently, inflates
// the group pivot total p_φ(m) by (1-f)·w), and the query attaches only
// when shared execution with the inflated coefficient still beats
// independent execution of the unmodified queries: x_shared(adj) >
// x_unshared(q) — the attach-time analogue of "share iff Z > 1".
func (p ModelGuided) ShouldAttach(q core.Query, m int, remaining float64) bool {
	if remaining <= 0 || m < 1 {
		return false
	}
	if remaining > 1 {
		remaining = 1
	}
	adj := core.AttachAdjusted(q, m, remaining)
	return core.SharedX(adj, m, p.Env) > core.UnsharedX(q, m, p.Env)
}

// Every built-in policy supports both submission-time and in-flight
// admission; Parallel and ModelGuided also drive clone-degree selection.
var (
	_ engine.AttachPolicy    = Always{}
	_ engine.AttachPolicy    = Never{}
	_ engine.AttachPolicy    = ModelGuided{}
	_ engine.AttachPolicy    = Parallel{}
	_ engine.ParallelPolicy  = Parallel{}
	_ engine.ParallelPolicy  = ModelGuided{}
	_ engine.LoadAwarePolicy = ModelGuided{}
	_ engine.PivotPolicy     = ModelGuided{}
)

// Name returns a short policy label for reports.
func Name(p engine.SharePolicy) string {
	switch pol := p.(type) {
	case Always:
		return "always"
	case Never, nil:
		return "never"
	case Parallel:
		return "parallel"
	case ModelGuided:
		switch {
		case pol.PivotSelect:
			return "subplan"
		case pol.MaxDegree > 1:
			return "hybrid"
		default:
			return "model"
		}
	default:
		return "custom"
	}
}

// ForEngine converts a policy into the form engine.Submit expects: Never
// becomes nil (the engine's never-share path, which skips group
// bookkeeping entirely).
func ForEngine(p engine.SharePolicy) engine.SharePolicy {
	if _, ok := p.(Never); ok {
		return nil
	}
	return p
}

// ByName resolves a policy label (the inverse of Name, plus the CLI-only
// "inflight" alias) into the policy and whether the engine should run with
// in-flight scan sharing for it. env is the hardware the model-guided
// policies evaluate against and maxDegree the clone-degree cap of their
// parallelize arm (typically the worker count). Shared by cordoba,
// cordobad and the bench/ harness so they never drift.
func ByName(name string, env core.Env, maxDegree int) (pol engine.SharePolicy, inflight bool, err error) {
	switch name {
	case "never":
		return Never{}, false, nil
	case "always":
		return Always{}, false, nil
	case "model":
		return ModelGuided{Env: env}, false, nil
	case "inflight":
		// The model policy with mid-flight scan attach enabled.
		return ModelGuided{Env: env}, true, nil
	case "parallel":
		return Parallel{Clones: maxDegree}, false, nil
	case "hybrid":
		// Model-guided share / parallelize / run-alone with mid-scan attach.
		return ModelGuided{Env: env, MaxDegree: maxDegree}, true, nil
	case "subplan":
		// Hybrid plus model-guided pivot selection: fresh groups anchor at
		// the candidate level with the fastest predicted shared rate.
		return ModelGuided{Env: env, MaxDegree: maxDegree, PivotSelect: true}, true, nil
	default:
		return nil, false, fmt.Errorf("policy: unknown policy %q", name)
	}
}

// Names lists the labels ByName accepts, in comparison order.
var Names = []string{"model", "inflight", "parallel", "hybrid", "subplan", "always", "never"}
