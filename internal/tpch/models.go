package tpch

import "repro/internal/core"

// Work-model coefficients for the benchmark queries, expressed per unit of
// forward progress (Section 4.1.1). The paper publishes only Q6's profiled
// parameters (w = 9.66, s = 10.34 at the scan, p = 0.97 at the aggregate);
// the Q1/Q4/Q13 coefficients below are calibrated so that the model and the
// CMP simulator reproduce the qualitative shapes of Figures 2 and 5:
//
//   - Scan-heavy Q1/Q6 pay a large per-sharer output cost s at the scan
//     pivot (every selected column is copied to every consumer), so sharing
//     helps on 1 CPU (≤ ~1.8x) and collapses with many processors.
//   - Join-heavy Q4/Q13 do most of their work below or at the join pivot and
//     hand tiny aggregates upward, so s is small relative to the eliminated
//     work and sharing always wins (up to ~30x on 1 CPU at 48 clients).
//
// These coefficients are set by hand, not fitted to this engine; they predate
// the current kernels and page size. Fitting them at set-up from
// profile.MeasureEngine runs is ROADMAP.md's item 3.

// Model returns the calibrated analytical model for the query, compiled
// against its sharing pivot (scan for Q1/Q6, join for Q4/Q13).
func Model(q QueryID) core.Query {
	switch q {
	case Q6:
		return core.Q6Paper()
	case Q1:
		// Q1 scans the same table as Q6 but feeds a much heavier aggregate
		// (eight aggregate columns over ~98% of lineitem): moderate scan
		// work, large per-consumer hand-off (six columns copied per tuple),
		// noticeable above-pivot work.
		return core.Query{
			Name:   "TPC-H Q1",
			PivotW: 8.0,
			PivotS: 9.0,
			Above:  []float64{3.5},
		}
	case Q4:
		// Q4 shares at the semi-join: both scans and the join build execute
		// below/at the pivot, and each sharer receives only a priority
		// stream (s tiny) feeding a trivial count.
		return core.Query{
			Name:   "TPC-H Q4",
			Below:  []float64{12, 8}, // lineitem scan, orders scan
			PivotW: 10,               // join build + probe work
			PivotS: 0.01,
			Above:  []float64{0.4}, // per-priority count
		}
	case Q13:
		// Q13 shares at the outer join: comment filtering and the join
		// dominate; the per-customer counting above the pivot is small.
		return core.Query{
			Name:   "TPC-H Q13",
			Below:  []float64{14, 9}, // orders scan+filter, customer scan
			PivotW: 12,
			PivotS: 0.05,
			Above:  []float64{0.8},
		}
	default:
		panic("tpch: no model for query " + q.String())
	}
}

// ModelAt returns the calibrated model of a scan-heavy query compiled at a
// pivot level of its engine plan: level 0 is the scan (identical to Model),
// level 1 the aggregate — the whole plan below the pivot runs once per
// group and each consumer receives only final summary rows. Join-heavy
// queries keep their single join-level compilation.
func ModelAt(q QueryID, level int) core.Query {
	base := Model(q)
	if level == 0 || !q.ScanHeavy() {
		return base
	}
	scanP := base.PivotW + base.PivotS
	aggW := base.Above[0]
	return core.Query{
		Name:   base.Name + " @agg",
		Below:  []float64{scanP},
		PivotW: aggW,
		PivotS: 0.1, // a page of summary rows per consumer
	}
}

// BuildModel returns the join-heavy query's model compiled at its build-side
// pivot: the whole build subtree — scanning, filtering, and hashing the
// build input — folds into the pivot's work w (run once per group), the
// per-consumer cost s is a hand-off of the sealed table (a pointer, not a
// page stream, so s is even smaller than the join-pivot s), and the probe
// subtree, the probe phase, and the aggregates above replicate per member.
// This is the "one build amortized over k probes" arm of core's build-share
// model; because s ≈ 0 its benefit grows with the group size on any
// processor count.
func BuildModel(q QueryID) core.Query {
	base := Model(q)
	switch q {
	case Q4:
		return core.Query{
			Name:   "TPC-H Q4 @build",
			PivotW: base.Below[0], // lineitem scan + hash build
			PivotS: 0.005,
			Above:  []float64{base.Below[1], base.PivotW, base.Above[0]}, // orders scan, probe, agg
		}
	case Q13:
		return core.Query{
			Name:   "TPC-H Q13 @build",
			PivotW: base.Below[0], // orders scan+filter+tag + hash build
			PivotS: 0.005,
			Above:  append([]float64{base.Below[1], base.PivotW}, base.Above...), // customer scan, probe, counts
		}
	default:
		panic("tpch: no build model for query " + q.String())
	}
}

// Plan returns the query's operator tree with the calibrated coefficients
// attached, pivot node named "pivot". The tree form feeds the simulator
// (which needs the operator topology, not just the flattened Query).
func Plan(q QueryID) core.Plan {
	m := Model(q)
	pivot := &core.PlanNode{Name: "pivot", W: m.PivotW, S: m.PivotS, Kind: core.Pipelined}
	for i, p := range m.Below {
		pivot.Children = append(pivot.Children, core.NewNode(belowName(q, i), p, 0))
	}
	node := pivot
	for i, p := range m.Above {
		node = core.NewNode(aboveName(q, i), p, 0, node)
	}
	return core.Plan{Name: m.Name, Root: node}
}

func belowName(q QueryID, i int) string {
	if q == Q4 || q == Q13 {
		if i == 0 {
			return "scan-build"
		}
		return "scan-probe"
	}
	return "scan"
}

func aboveName(q QueryID, i int) string {
	if i == 0 {
		return "agg"
	}
	return "agg" + string(rune('0'+i))
}

// PivotName returns the plan-node name at which the query shares.
const PivotName = "pivot"
