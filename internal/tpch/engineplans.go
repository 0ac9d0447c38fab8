package tpch

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/relop"
	"repro/internal/storage"
)

// EngineSpec builds the staged-engine execution spec for a benchmark query:
// the operator DAG, its sharing pivot (scan for Q1/Q6, join for Q4/Q13, as
// in Section 3.1 of the paper), and the calibrated model coefficients the
// sharing policy consults. All base-table scans are declared (NodeSpec.Scan)
// rather than opaque, so the scan-pivot queries Q1 and Q6 can additionally
// share their scans in flight through the circular scan registry when the
// engine runs with InflightSharing. The scan-heavy specs also offer their
// aggregate as a second pivot candidate (QuerySpec.Pivots, models compiled
// per level via ModelAt), so a pivot-selecting policy can lift identical
// queries to whole-plan sharing; the join-heavy specs declare split
// Build/Probe forms and offer their build subtree as a build-side
// candidate (BuildModel), so queries that agree only below the build run
// one hash build and probe it privately. See families.go for specs whose
// subplans are shared across non-identical queries.
func EngineSpec(q QueryID, db *DB, pageRows int) (engine.QuerySpec, error) {
	switch q {
	case Q6:
		return q6Spec(db, pageRows), nil
	case Q1:
		return q1Spec(db, pageRows), nil
	case Q4:
		return q4Spec(db, pageRows), nil
	case Q13:
		return q13Spec(db, pageRows), nil
	default:
		return engine.QuerySpec{}, fmt.Errorf("tpch: no engine spec for query %d", int(q))
	}
}

// MustEngineSpec is EngineSpec that panics on error.
func MustEngineSpec(q QueryID, db *DB, pageRows int) engine.QuerySpec {
	spec, err := EngineSpec(q, db, pageRows)
	if err != nil {
		panic(err)
	}
	return spec
}

// aggForms builds the serial, clone-partial, and merge factories of one
// grouping aggregate, so scan-pivot plans can both share serially and run
// as partitioned clones. groupHint pre-sizes the serial form's group map to
// the estimated distinct-key count (see cardinality.go); zero means unsized.
func aggForms(in storage.Schema, groupBy []string, specs []relop.AggSpec, groupHint int) (op, partial, merge engine.OpFactory) {
	op = func(emit relop.Emit) (relop.Operator, error) {
		return relop.NewHashAggSized(in, groupBy, specs, groupHint, emit)
	}
	partial = func(emit relop.Emit) (relop.Operator, error) {
		return relop.NewPartialHashAgg(in, groupBy, specs, emit)
	}
	merge = func(emit relop.Emit) (relop.Operator, error) {
		return relop.NewMergeHashAgg(in, groupBy, specs, emit)
	}
	return op, partial, merge
}

func q6Spec(db *DB, pageRows int) engine.QuerySpec {
	scanCols := []string{"l_extendedprice", "l_discount"}
	scanSchema := storage.MustSchema(
		storage.Column{Name: "l_extendedprice", Type: storage.Float64},
		storage.Column{Name: "l_discount", Type: storage.Float64},
	)
	op, partial, merge := aggForms(scanSchema, nil, []relop.AggSpec{{
		Func: relop.Sum,
		Expr: relop.Arith{Op: relop.Mul, L: relop.Col("l_extendedprice"), R: relop.Col("l_discount")},
		As:   "revenue",
	}}, 1)
	return engine.QuerySpec{
		Signature: "tpch/q6",
		PlanKey:   "tpch/q6",
		Model:     Model(Q6),
		Pivot:     0,
		Pivots: []engine.PivotOption{
			{Pivot: 1, Model: ModelAt(Q6, 1)},
			{Pivot: 0, Model: ModelAt(Q6, 0)},
		},
		Nodes: []engine.NodeSpec{
			engine.ScanNode("q6/scan-lineitem", db.Lineitem, Q6Pred(), scanCols, pageRows),
			{Name: "q6/agg", Input: 0, Fingerprint: "q6/agg", Op: op, Partial: partial, Merge: merge, RowsHint: 1},
		},
	}
}

func q1Spec(db *DB, pageRows int) engine.QuerySpec {
	scanCols := []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"}
	scanSchema, err := db.Lineitem.Schema().Project(scanCols...)
	if err != nil {
		panic(err)
	}
	op, partial, merge := aggForms(scanSchema, []string{"l_returnflag", "l_linestatus"}, q1AggSpecs(), Q1Groups)
	return engine.QuerySpec{
		Signature: "tpch/q1",
		PlanKey:   "tpch/q1",
		Model:     Model(Q1),
		Pivot:     0,
		Pivots: []engine.PivotOption{
			{Pivot: 1, Model: ModelAt(Q1, 1)},
			{Pivot: 0, Model: ModelAt(Q1, 0)},
		},
		Nodes: []engine.NodeSpec{
			engine.ScanNode("q1/scan-lineitem", db.Lineitem, Q1Pred(), scanCols, pageRows),
			{Name: "q1/agg", Input: 0, Fingerprint: "q1/agg", Op: op, Partial: partial, Merge: merge, RowsHint: Q1Groups},
		},
	}
}

func q4Spec(db *DB, pageRows int) engine.QuerySpec {
	lineSchema := storage.MustSchema(storage.Column{Name: "l_orderkey", Type: storage.Int64})
	orderCols := []string{"o_orderkey", "o_orderpriority"}
	orderSchema, err := db.Orders.Schema().Project(orderCols...)
	if err != nil {
		panic(err)
	}
	buildHint := EstimateQ4BuildRows(db)
	return engine.QuerySpec{
		Signature: "tpch/q4",
		PlanKey:   "tpch/q4",
		Model:     Model(Q4),
		Pivot:     2,
		// Candidates highest level first: the whole-plan join pivot, then
		// the build side — two identical Q4s share the join outright, while
		// a query that only matches the lineitem build subplan (a date-window
		// variant) still amortizes the one hash build.
		Pivots: []engine.PivotOption{
			{Pivot: 2, Model: Model(Q4)},
			{Pivot: 0, Build: true, Model: BuildModel(Q4)},
		},
		Nodes: []engine.NodeSpec{
			engine.ScanNode("q4/scan-lineitem", db.Lineitem, Q4LineitemPred(), []string{"l_orderkey"}, pageRows),
			engine.ScanNode("q4/scan-orders", db.Orders, Q4OrdersPred(), orderCols, pageRows),
			semiJoinNode("q4/semijoin", lineSchema, orderSchema, 0, 1, buildHint),
			{Name: "q4/agg", Input: 2, Fingerprint: "q4/agg", RowsHint: Q4Groups, Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewHashAggSized(orderSchema, []string{"o_orderpriority"}, []relop.AggSpec{
					{Func: relop.Count, As: "order_count"},
				}, Q4Groups, emit)
			}},
		},
	}
}

// semiJoinNode builds the Q4-shaped semi-join node with its split
// Build/Probe forms declared, so the build side is a shareable pivot. Both
// forms seal the key-set table a semi join reads (relop.NewJoinBuildFor), so
// a shared or cached Q4 build holds its distinct keys only. buildHint is the
// estimated build-side cardinality (zero = unknown).
func semiJoinNode(name string, lineSchema, orderSchema storage.Schema, buildIn, probeIn, buildHint int) engine.NodeSpec {
	return engine.NodeSpec{
		Name:        name,
		Fingerprint: name,
		BuildInput:  buildIn,
		ProbeInput:  probeIn,
		Join: func(emit relop.Emit) (engine.JoinOperator, error) {
			return relop.NewHashJoinSized(relop.Semi, lineSchema, "l_orderkey", orderSchema, "o_orderkey", buildHint, emit)
		},
		Build: func() (*relop.JoinBuild, error) {
			return relop.NewJoinBuildFor(relop.Semi, lineSchema, "l_orderkey", buildHint)
		},
		Probe: func(emit relop.Emit) (engine.ProbeOperator, error) {
			return relop.NewHashJoinProbe(relop.Semi, lineSchema, "l_orderkey", orderSchema, "o_orderkey", emit)
		},
	}
}

func q13Spec(db *DB, pageRows int) engine.QuerySpec {
	orderScanSchema := storage.MustSchema(storage.Column{Name: "o_custkey", Type: storage.Int64})
	buildSchema := storage.MustSchema(
		storage.Column{Name: "o_custkey", Type: storage.Int64},
		storage.Column{Name: "one", Type: storage.Int64},
	)
	custSchema := storage.MustSchema(storage.Column{Name: "c_custkey", Type: storage.Int64})
	joinOut := storage.MustSchema(
		storage.Column{Name: "c_custkey", Type: storage.Int64},
		storage.Column{Name: "one", Type: storage.Int64},
	)
	perCustOut := storage.MustSchema(
		storage.Column{Name: "c_custkey", Type: storage.Int64},
		storage.Column{Name: "c_count", Type: storage.Float64},
	)
	buildHint := EstimateQ13BuildRows(db)
	custHint := db.Customer.NumRows()
	return engine.QuerySpec{
		Signature: "tpch/q13",
		PlanKey:   "tpch/q13",
		Model:     Model(Q13),
		Pivot:     3,
		// The join pivot first, then the build subtree (orders scan + tag):
		// Q13 variants that share only the filtered-orders side run one
		// build and probe their own customer sets against it.
		Pivots: []engine.PivotOption{
			{Pivot: 3, Model: Model(Q13)},
			{Pivot: 1, Build: true, Model: BuildModel(Q13)},
		},
		Nodes: []engine.NodeSpec{
			engine.ScanNode("q13/scan-orders", db.Orders, Q13CommentPred(), []string{"o_custkey"}, pageRows),
			{Name: "q13/tag", Input: 0, Fingerprint: "q13/tag", Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewProject(orderScanSchema, []relop.ProjectCol{
					{As: "o_custkey", Expr: relop.Col("o_custkey")},
					{As: "one", Expr: relop.ConstInt{V: 1}},
				}, emit)
			}},
			engine.ScanNode("q13/scan-customer", db.Customer, nil, []string{"c_custkey"}, pageRows),
			outerJoinNode("q13/outerjoin", buildSchema, custSchema, 1, 2, buildHint),
			{Name: "q13/percust", Input: 3, Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewHashAggSized(joinOut, []string{"c_custkey"}, []relop.AggSpec{
					{Func: relop.Sum, Expr: relop.Col("one"), As: "c_count"},
				}, custHint, emit)
			}},
			{Name: "q13/dist", Input: 4, RowsHint: Q13DistGroups, Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewHashAggSized(perCustOut, []string{"c_count"}, []relop.AggSpec{
					{Func: relop.Count, As: "custdist"},
				}, Q13DistGroups, emit)
			}},
		},
	}
}

// outerJoinNode builds the Q13-shaped left-outer join node with its split
// Build/Probe forms declared, so the build side is a shareable pivot.
// buildHint pre-sizes the build's hash table, split or inside the unshared
// join (zero = unsized).
func outerJoinNode(name string, buildSchema, custSchema storage.Schema, buildIn, probeIn, buildHint int) engine.NodeSpec {
	return engine.NodeSpec{
		Name:        name,
		Fingerprint: name,
		BuildInput:  buildIn,
		ProbeInput:  probeIn,
		Join: func(emit relop.Emit) (engine.JoinOperator, error) {
			return relop.NewHashJoinSized(relop.LeftOuter, buildSchema, "o_custkey", custSchema, "c_custkey", buildHint, emit)
		},
		Build: func() (*relop.JoinBuild, error) {
			return relop.NewJoinBuildFor(relop.LeftOuter, buildSchema, "o_custkey", buildHint)
		},
		Probe: func(emit relop.Emit) (engine.ProbeOperator, error) {
			return relop.NewHashJoinProbe(relop.LeftOuter, buildSchema, "o_custkey", custSchema, "c_custkey", emit)
		},
	}
}
