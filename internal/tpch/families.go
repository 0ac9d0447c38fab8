package tpch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relop"
	"repro/internal/storage"
)

// This file defines query families: groups of related-but-not-identical
// queries whose plans share a common subplan prefix, exercising the
// pivot-above-the-scan machinery of PR 3.
//
//   - The Q1 family varies the grouping of the pricing summary report. All
//     variants run the identical filtered lineitem pass (one share key at
//     the scan), then diverge at their aggregates. Two arrivals of the SAME
//     variant additionally offer the aggregate itself as a pivot candidate:
//     the whole query runs once and only final rows fan out.
//   - The Q6 family varies the forecasting query's shipdate window inside
//     the spec's one-year range. Variants scan with the family's superset
//     predicate (the full year) and each member applies its variant's
//     residual date filter in its private chain — the superset-scan +
//     residual-filter pattern. Identical variants may again lift the pivot
//     to the aggregate.
//
// Every spec declares pivot candidates highest level first, with the work
// model compiled at each level, so model-guided policies can pick the
// highest beneficial sharing point per group.

//   - The Q4 family varies the order-priority query's orderdate window
//     inside the spec's quarter. Every variant probes a different slice of
//     orders, but the semi-join's build side — the late-commit lineitem
//     subplan — is byte-for-byte the same subtree, so variants cannot merge
//     at the join yet fingerprint-match at the build: the engine runs one
//     hash build and each variant probes it privately (the hybrid-hash-join
//     reuse case).
//   - The Q13 family varies which customer segment is counted (custkey
//     ranges standing in for market segments). The probe side differs per
//     variant while the filtered-orders build subtree (scan + tag) is
//     shared, again one build for the whole family.
//
// Q6FamilyVariants and friends are the family sizes.
const (
	Q6FamilyVariants  = 3
	Q1FamilyVariants  = 3
	Q4FamilyVariants  = 3
	Q13FamilyVariants = 3
)

// q6FamilyWindow returns the variant's shipdate window [lo, hi) inside the
// family's superset range. Variant 0 is the full spec year; 1 and 2 are its
// halves.
func q6FamilyWindow(variant int) (lo, hi int64) {
	mid := MustDate(1994, 7, 1)
	switch variant % Q6FamilyVariants {
	case 1:
		return DateQ6Start, mid
	case 2:
		return mid, DateQ6End
	default:
		return DateQ6Start, DateQ6End
	}
}

// q6SupersetPred is the family's shared scan predicate: every clause of
// Q6Pred except the variant-specific shipdate bounds, plus the widest
// window, so each variant's rows are a subset of the scan's output.
func q6SupersetPred() relop.Pred {
	return relop.And{Preds: []relop.Pred{
		relop.Cmp{Op: relop.Ge, L: relop.Col("l_shipdate"), R: relop.ConstInt{V: DateQ6Start}},
		relop.Cmp{Op: relop.Lt, L: relop.Col("l_shipdate"), R: relop.ConstInt{V: DateQ6End}},
		relop.Cmp{Op: relop.Ge, L: relop.Col("l_discount"), R: relop.ConstFloat{V: 0.05}},
		relop.Cmp{Op: relop.Le, L: relop.Col("l_discount"), R: relop.ConstFloat{V: 0.07}},
		relop.Cmp{Op: relop.Lt, L: relop.Col("l_quantity"), R: relop.ConstInt{V: 24}},
	}}
}

// q6ResidualPred is the variant's private filter over the superset scan.
func q6ResidualPred(variant int) relop.Pred {
	lo, hi := q6FamilyWindow(variant)
	return relop.And{Preds: []relop.Pred{
		relop.Cmp{Op: relop.Ge, L: relop.Col("l_shipdate"), R: relop.ConstInt{V: lo}},
		relop.Cmp{Op: relop.Lt, L: relop.Col("l_shipdate"), R: relop.ConstInt{V: hi}},
	}}
}

// Q6FamilyModel returns the variant-independent work model of a Q6 family
// member compiled at a pivot level: level 0 is the scan (the paper's Q6
// coefficients with the residual filter as extra above-pivot work), level 1
// the residual filter, level 2 the aggregate (everything below runs once
// per group; only final rows are handed to each consumer).
func Q6FamilyModel(level int) core.Query {
	base := core.Q6Paper() // w=9.66 s=10.34 at the scan, p=0.97 above
	const residual = 0.5
	scanP := base.PivotW + base.PivotS
	switch level {
	case 2:
		return core.Query{
			Name:   "TPC-H Q6 family @agg",
			Below:  []float64{scanP, residual},
			PivotW: base.Above[0],
			PivotS: 0.05,
		}
	case 1:
		return core.Query{
			Name:   "TPC-H Q6 family @residual",
			Below:  []float64{scanP},
			PivotW: residual,
			PivotS: base.PivotS * 0.5, // residual output is a subset of the scan's
			Above:  append([]float64(nil), base.Above...),
		}
	default:
		return core.Query{
			Name:   "TPC-H Q6 family @scan",
			PivotW: base.PivotW,
			PivotS: base.PivotS,
			Above:  []float64{residual, base.Above[0]},
		}
	}
}

// Q6FamilySpec builds the engine spec of one Q6 family variant: superset
// scan (shared prefix), residual date filter, revenue aggregate. The spec
// anchors at the scan by default and offers the aggregate as the higher
// pivot candidate.
func Q6FamilySpec(db *DB, pageRows, variant int) engine.QuerySpec {
	variant = variant % Q6FamilyVariants
	scanCols := []string{"l_extendedprice", "l_discount", "l_shipdate"}
	scanSchema, err := db.Lineitem.Schema().Project(scanCols...)
	if err != nil {
		panic(err)
	}
	agg, aggPartial, aggMerge := aggForms(scanSchema, nil, []relop.AggSpec{{
		Func: relop.Sum,
		Expr: relop.Arith{Op: relop.Mul, L: relop.Col("l_extendedprice"), R: relop.Col("l_discount")},
		As:   "revenue",
	}}, 1)
	residual := q6ResidualPred(variant)
	sig := fmt.Sprintf("tpch/q6f/v%d", variant)
	return engine.QuerySpec{
		Signature: sig,
		PlanKey:   sig,
		Model:     Q6FamilyModel(0),
		Pivot:     0,
		Pivots: []engine.PivotOption{
			{Pivot: 2, Model: Q6FamilyModel(2)},
			{Pivot: 0, Model: Q6FamilyModel(0)},
		},
		Nodes: []engine.NodeSpec{
			engine.ScanNode("q6f/scan-lineitem", db.Lineitem, q6SupersetPred(), scanCols, pageRows),
			{
				Name:        "q6f/residual",
				Input:       0,
				Fingerprint: fmt.Sprintf("q6f/residual[v=%d]", variant),
				Op: func(emit relop.Emit) (relop.Operator, error) {
					return relop.NewFilter(residual, scanSchema, emit), nil
				},
			},
			{
				Name:        "q6f/agg",
				Input:       1,
				Fingerprint: fmt.Sprintf("q6f/agg[v=%d]", variant),
				Op:          agg,
				Partial:     aggPartial,
				Merge:       aggMerge,
				RowsHint:    1,
			},
		},
	}
}

// Q6FamilyReference executes a Q6 family variant single-threaded (scan with
// the variant's full predicate, no sharing machinery), the ground truth the
// engine's shared execution is checked against.
func Q6FamilyReference(db *DB, variant int) (*storage.Batch, error) {
	lo, hi := q6FamilyWindow(variant)
	pred := relop.And{Preds: []relop.Pred{
		relop.Cmp{Op: relop.Ge, L: relop.Col("l_shipdate"), R: relop.ConstInt{V: lo}},
		relop.Cmp{Op: relop.Lt, L: relop.Col("l_shipdate"), R: relop.ConstInt{V: hi}},
		relop.Cmp{Op: relop.Ge, L: relop.Col("l_discount"), R: relop.ConstFloat{V: 0.05}},
		relop.Cmp{Op: relop.Le, L: relop.Col("l_discount"), R: relop.ConstFloat{V: 0.07}},
		relop.Cmp{Op: relop.Lt, L: relop.Col("l_quantity"), R: relop.ConstInt{V: 24}},
	}}
	scanCols := []string{"l_extendedprice", "l_discount", "l_shipdate"}
	scanSchema, err := db.Lineitem.Schema().Project(scanCols...)
	if err != nil {
		return nil, err
	}
	agg, err := relop.NewHashAgg(scanSchema, nil, []relop.AggSpec{{
		Func: relop.Sum,
		Expr: relop.Arith{Op: relop.Mul, L: relop.Col("l_extendedprice"), R: relop.Col("l_discount")},
		As:   "revenue",
	}}, nil)
	if err != nil {
		return nil, err
	}
	emit, result := relop.Collect(agg.OutSchema())
	return runScanInto(db.Lineitem, pred, scanCols, agg, emit, result)
}

// q4FamilyWindow returns the variant's orderdate window [lo, hi) inside the
// spec quarter. Variant 0 is the full quarter; 1 and 2 are its halves.
func q4FamilyWindow(variant int) (lo, hi int64) {
	mid := MustDate(1993, 8, 15)
	switch variant % Q4FamilyVariants {
	case 1:
		return DateQ4Start, mid
	case 2:
		return mid, DateQ4End
	default:
		return DateQ4Start, DateQ4End
	}
}

// q4FamilyOrdersPred is the variant's orders selection.
func q4FamilyOrdersPred(variant int) relop.Pred {
	lo, hi := q4FamilyWindow(variant)
	return relop.And{Preds: []relop.Pred{
		relop.Cmp{Op: relop.Ge, L: relop.Col("o_orderdate"), R: relop.ConstInt{V: lo}},
		relop.Cmp{Op: relop.Lt, L: relop.Col("o_orderdate"), R: relop.ConstInt{V: hi}},
	}}
}

// Q4FamilyModel returns the work model of a Q4 family member at a pivot
// level: 2 the semi-join (variants with identical windows merge there), 0
// the lineitem build side (any two variants merge there — one hash build
// amortized over the family's probes).
func Q4FamilyModel(level int) core.Query {
	if level == 0 {
		m := BuildModel(Q4)
		m.Name = "TPC-H Q4 family @build"
		return m
	}
	m := Model(Q4)
	m.Name = "TPC-H Q4 family @join"
	return m
}

// Q4FamilySpec builds the engine spec of one Q4 family variant: the shared
// late-commit lineitem build feeding a semi-join probed by the variant's
// orderdate window, counted per priority. The spec anchors at the join and
// offers the build subtree as the lower, cross-variant candidate.
func Q4FamilySpec(db *DB, pageRows, variant int) engine.QuerySpec {
	return q4FamilySpec(db, pageRows, variant, true)
}

// Q4FamilySpecNoHints is Q4FamilySpec with the cardinality-model pre-sizing
// hints disabled. Results are byte-identical to the hinted spec; only
// allocation behavior differs.
func Q4FamilySpecNoHints(db *DB, pageRows, variant int) engine.QuerySpec {
	return q4FamilySpec(db, pageRows, variant, false)
}

func q4FamilySpec(db *DB, pageRows, variant int, hints bool) engine.QuerySpec {
	variant = variant % Q4FamilyVariants
	lineSchema := storage.MustSchema(storage.Column{Name: "l_orderkey", Type: storage.Int64})
	orderCols := []string{"o_orderkey", "o_orderpriority"}
	orderSchema, err := db.Orders.Schema().Project(orderCols...)
	if err != nil {
		panic(err)
	}
	buildHint, aggHint := 0, 0
	if hints {
		buildHint = EstimateQ4BuildRows(db)
		aggHint = Q4Groups
	}
	q4AggOp, q4AggPartial, q4AggMerge := aggForms(orderSchema, []string{"o_orderpriority"}, []relop.AggSpec{
		{Func: relop.Count, As: "order_count"},
	}, aggHint)
	sig := fmt.Sprintf("tpch/q4f/v%d", variant)
	return engine.QuerySpec{
		Signature: sig,
		PlanKey:   sig,
		Model:     Q4FamilyModel(2),
		Pivot:     2,
		Pivots: []engine.PivotOption{
			{Pivot: 2, Model: Q4FamilyModel(2)},
			{Pivot: 0, Build: true, Model: Q4FamilyModel(0)},
		},
		Nodes: []engine.NodeSpec{
			engine.ScanNode("q4f/scan-lineitem", db.Lineitem, Q4LineitemPred(), []string{"l_orderkey"}, pageRows),
			engine.ScanNode("q4f/scan-orders", db.Orders, q4FamilyOrdersPred(variant), orderCols, pageRows),
			semiJoinNode("q4f/semijoin", lineSchema, orderSchema, 0, 1, buildHint),
			{Name: "q4f/agg", Input: 2, Fingerprint: "q4f/agg", RowsHint: aggHint,
				Op: q4AggOp, Partial: q4AggPartial, Merge: q4AggMerge},
		},
	}
}

// Q4FamilyReference executes a Q4 family variant single-threaded: the
// ground truth shared execution is checked against.
func Q4FamilyReference(db *DB, variant int) (*storage.Batch, error) {
	lineCols := []string{"l_orderkey"}
	lineSchema, err := db.Lineitem.Schema().Project(lineCols...)
	if err != nil {
		return nil, err
	}
	orderCols := []string{"o_orderkey", "o_orderpriority"}
	orderSchema, err := db.Orders.Schema().Project(orderCols...)
	if err != nil {
		return nil, err
	}
	hj, err := relop.NewHashJoin(relop.Semi, lineSchema, "l_orderkey", orderSchema, "o_orderkey", nil)
	if err != nil {
		return nil, err
	}
	buildScan, err := relop.NewScan(db.Lineitem, Q4LineitemPred(), lineCols, 0, hj.PushBuild)
	if err != nil {
		return nil, err
	}
	if err := buildScan.Run(); err != nil {
		return nil, err
	}
	if err := hj.FinishBuild(); err != nil {
		return nil, err
	}
	agg, err := relop.NewHashAgg(hj.OutSchema(), []string{"o_orderpriority"}, []relop.AggSpec{
		{Func: relop.Count, As: "order_count"},
	}, nil)
	if err != nil {
		return nil, err
	}
	emit, result := relop.Collect(agg.OutSchema())
	agg.SetEmit(emit)
	hj.SetEmit(agg.Push)
	probeScan, err := relop.NewScan(db.Orders, q4FamilyOrdersPred(variant), orderCols, 0, hj.Push)
	if err != nil {
		return nil, err
	}
	if err := probeScan.Run(); err != nil {
		return nil, err
	}
	if err := hj.Finish(); err != nil {
		return nil, err
	}
	if err := agg.Finish(); err != nil {
		return nil, err
	}
	return result(), nil
}

// q13FamilyCustRange returns the variant's customer key range [lo, hi):
// variant 0 is every customer, 1 and 2 split the key space in half.
func q13FamilyCustRange(db *DB, variant int) (lo, hi int64) {
	n := int64(db.Customer.NumRows())
	switch variant % Q13FamilyVariants {
	case 1:
		return 1, n/2 + 1
	case 2:
		return n/2 + 1, n + 1
	default:
		return 1, n + 1
	}
}

// q13FamilyCustPred is the variant's customer selection.
func q13FamilyCustPred(db *DB, variant int) relop.Pred {
	lo, hi := q13FamilyCustRange(db, variant)
	return relop.And{Preds: []relop.Pred{
		relop.Cmp{Op: relop.Ge, L: relop.Col("c_custkey"), R: relop.ConstInt{V: lo}},
		relop.Cmp{Op: relop.Lt, L: relop.Col("c_custkey"), R: relop.ConstInt{V: hi}},
	}}
}

// Q13FamilyModel returns the work model of a Q13 family member at a pivot
// level: 3 the outer join, 1 the filtered-orders build subtree.
func Q13FamilyModel(level int) core.Query {
	if level == 1 {
		m := BuildModel(Q13)
		m.Name = "TPC-H Q13 family @build"
		return m
	}
	m := Model(Q13)
	m.Name = "TPC-H Q13 family @join"
	return m
}

// Q13FamilySpec builds the engine spec of one Q13 family variant: the
// shared filtered-orders build (scan + tag) outer-joined against the
// variant's customer segment, counted into the order-count distribution.
func Q13FamilySpec(db *DB, pageRows, variant int) engine.QuerySpec {
	return q13FamilySpec(db, pageRows, variant, true)
}

// Q13FamilySpecNoHints is Q13FamilySpec with the cardinality-model
// pre-sizing hints disabled — the unsized arm of the pre-sizing ablation.
func Q13FamilySpecNoHints(db *DB, pageRows, variant int) engine.QuerySpec {
	return q13FamilySpec(db, pageRows, variant, false)
}

func q13FamilySpec(db *DB, pageRows, variant int, hints bool) engine.QuerySpec {
	variant = variant % Q13FamilyVariants
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
	buildHint, custHint, distHint := 0, 0, 0
	if hints {
		lo, hi := q13FamilyCustRange(db, variant)
		buildHint = EstimateQ13BuildRows(db)
		custHint = EstimateCustomerRangeRows(db, lo, hi)
		distHint = Q13DistGroups
	}
	distOp, distPartial, distMerge := aggForms(perCustOut, []string{"c_count"}, []relop.AggSpec{
		{Func: relop.Count, As: "custdist"},
	}, distHint)
	sig := fmt.Sprintf("tpch/q13f/v%d", variant)
	return engine.QuerySpec{
		Signature: sig,
		PlanKey:   sig,
		Model:     Q13FamilyModel(3),
		Pivot:     3,
		Pivots: []engine.PivotOption{
			{Pivot: 3, Model: Q13FamilyModel(3)},
			{Pivot: 1, Build: true, Model: Q13FamilyModel(1)},
		},
		Nodes: []engine.NodeSpec{
			engine.ScanNode("q13f/scan-orders", db.Orders, Q13CommentPred(), []string{"o_custkey"}, pageRows),
			{Name: "q13f/tag", Input: 0, Fingerprint: "q13f/tag", Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewProject(orderScanSchema, []relop.ProjectCol{
					{As: "o_custkey", Expr: relop.Col("o_custkey")},
					{As: "one", Expr: relop.ConstInt{V: 1}},
				}, emit)
			}},
			engine.ScanNode("q13f/scan-customer", db.Customer, q13FamilyCustPred(db, variant), []string{"c_custkey"}, pageRows),
			outerJoinNode("q13f/outerjoin", buildSchema, custSchema, 1, 2, buildHint),
			{Name: "q13f/percust", Input: 3, Fingerprint: "q13f/percust", RowsHint: custHint, Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewHashAggSized(joinOut, []string{"c_custkey"}, []relop.AggSpec{
					{Func: relop.Sum, Expr: relop.Col("one"), As: "c_count"},
				}, custHint, emit)
			}},
			{Name: "q13f/dist", Input: 4, Fingerprint: "q13f/dist", RowsHint: distHint,
				Op: distOp, Partial: distPartial, Merge: distMerge},
		},
	}
}

// Q13FamilyReference executes a Q13 family variant single-threaded with the
// engine plan's operators (float c_count, like q13Spec), so shared engine
// results can be compared byte for byte.
func Q13FamilyReference(db *DB, variant int) (*storage.Batch, error) {
	buildSchema := storage.MustSchema(
		storage.Column{Name: "o_custkey", Type: storage.Int64},
		storage.Column{Name: "one", Type: storage.Int64},
	)
	custSchema := storage.MustSchema(storage.Column{Name: "c_custkey", Type: storage.Int64})
	hj, err := relop.NewHashJoin(relop.LeftOuter, buildSchema, "o_custkey", custSchema, "c_custkey", nil)
	if err != nil {
		return nil, err
	}
	buildBatch := storage.NewBatch(buildSchema, 1024)
	orderScan, err := relop.NewScan(db.Orders, Q13CommentPred(), []string{"o_custkey"}, 0, func(b *storage.Batch) error {
		keys := b.MustCol("o_custkey")
		for i := 0; i < b.Len(); i++ {
			if err := buildBatch.AppendRow(keys.I64[i], int64(1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := orderScan.Run(); err != nil {
		return nil, err
	}
	if err := hj.PushBuild(buildBatch); err != nil {
		return nil, err
	}
	if err := hj.FinishBuild(); err != nil {
		return nil, err
	}
	perCust, err := relop.NewHashAgg(hj.OutSchema(), []string{"c_custkey"}, []relop.AggSpec{
		{Func: relop.Sum, Expr: relop.Col("one"), As: "c_count"},
	}, nil)
	if err != nil {
		return nil, err
	}
	dist, err := relop.NewHashAgg(perCust.OutSchema(), []string{"c_count"}, []relop.AggSpec{
		{Func: relop.Count, As: "custdist"},
	}, nil)
	if err != nil {
		return nil, err
	}
	emit, result := relop.Collect(dist.OutSchema())
	dist.SetEmit(emit)
	perCust.SetEmit(dist.Push)
	hj.SetEmit(perCust.Push)
	custScan, err := relop.NewScan(db.Customer, q13FamilyCustPred(db, variant), []string{"c_custkey"}, 0, hj.Push)
	if err != nil {
		return nil, err
	}
	if err := custScan.Run(); err != nil {
		return nil, err
	}
	if err := hj.Finish(); err != nil {
		return nil, err
	}
	if err := perCust.Finish(); err != nil {
		return nil, err
	}
	if err := dist.Finish(); err != nil {
		return nil, err
	}
	return result(), nil
}

// q1FamilyGroupBy returns the variant's grouping columns: the classic
// (l_returnflag, l_linestatus) report and its two single-column rollups.
func q1FamilyGroupBy(variant int) []string {
	switch variant % Q1FamilyVariants {
	case 1:
		return []string{"l_returnflag"}
	case 2:
		return []string{"l_linestatus"}
	default:
		return []string{"l_returnflag", "l_linestatus"}
	}
}

// Q1FamilyModel returns the work model of a Q1 family member at a pivot
// level: 0 the scan (the calibrated Q1 coefficients), 1 the aggregate.
// The family plan is shaped exactly like the benchmark Q1 plan, so both
// levels delegate to ModelAt.
func Q1FamilyModel(level int) core.Query { return ModelAt(Q1, level) }

// Q1FamilySpec builds the engine spec of one Q1 family variant: the shared
// Q1 lineitem pass feeding a variant grouping of the full aggregate list.
// Variants share the scan with each other and the whole plan with arrivals
// of the same variant; the parallel forms are kept, so the spec also
// remains eligible for partitioned-clone execution.
func Q1FamilySpec(db *DB, pageRows, variant int) engine.QuerySpec {
	return q1FamilySpec(db, pageRows, variant, true)
}

// Q1FamilySpecNoHints is Q1FamilySpec with the cardinality-model pre-sizing
// hints disabled — the unsized arm of the pre-sizing ablation.
func Q1FamilySpecNoHints(db *DB, pageRows, variant int) engine.QuerySpec {
	return q1FamilySpec(db, pageRows, variant, false)
}

func q1FamilySpec(db *DB, pageRows, variant int, hints bool) engine.QuerySpec {
	variant = variant % Q1FamilyVariants
	scanCols := []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"}
	scanSchema, err := db.Lineitem.Schema().Project(scanCols...)
	if err != nil {
		panic(err)
	}
	groupBy := q1FamilyGroupBy(variant)
	groupHint := 0
	if hints {
		// Q1Groups bounds every variant: the rollups see no more distinct
		// keys than the full (returnflag, linestatus) grouping.
		groupHint = Q1Groups
	}
	op, partial, merge := aggForms(scanSchema, groupBy, q1AggSpecs(), groupHint)
	sig := fmt.Sprintf("tpch/q1f/v%d", variant)
	return engine.QuerySpec{
		Signature: sig,
		PlanKey:   sig,
		Model:     Q1FamilyModel(0),
		Pivot:     0,
		Pivots: []engine.PivotOption{
			{Pivot: 1, Model: Q1FamilyModel(1)},
			{Pivot: 0, Model: Q1FamilyModel(0)},
		},
		Nodes: []engine.NodeSpec{
			engine.ScanNode("q1f/scan-lineitem", db.Lineitem, Q1Pred(), scanCols, pageRows),
			{
				Name:        "q1f/agg",
				Input:       0,
				Fingerprint: fmt.Sprintf("q1f/agg[gb=%v]", groupBy),
				Op:          op,
				Partial:     partial,
				Merge:       merge,
				RowsHint:    groupHint,
			},
		},
	}
}

// q1AggSpecs is the Q1 aggregate list shared by every family variant.
func q1AggSpecs() []relop.AggSpec {
	discPrice := relop.Arith{Op: relop.Mul,
		L: relop.Col("l_extendedprice"),
		R: relop.Arith{Op: relop.Sub, L: relop.ConstFloat{V: 1}, R: relop.Col("l_discount")}}
	charge := relop.Arith{Op: relop.Mul, L: discPrice,
		R: relop.Arith{Op: relop.Add, L: relop.ConstFloat{V: 1}, R: relop.Col("l_tax")}}
	return []relop.AggSpec{
		{Func: relop.Sum, Expr: relop.Col("l_quantity"), As: "sum_qty"},
		{Func: relop.Sum, Expr: relop.Col("l_extendedprice"), As: "sum_base_price"},
		{Func: relop.Sum, Expr: discPrice, As: "sum_disc_price"},
		{Func: relop.Sum, Expr: charge, As: "sum_charge"},
		{Func: relop.Avg, Expr: relop.Col("l_quantity"), As: "avg_qty"},
		{Func: relop.Avg, Expr: relop.Col("l_extendedprice"), As: "avg_price"},
		{Func: relop.Avg, Expr: relop.Col("l_discount"), As: "avg_disc"},
		{Func: relop.Count, As: "count_order"},
	}
}

// Q1FamilyReference executes a Q1 family variant single-threaded.
func Q1FamilyReference(db *DB, variant int) (*storage.Batch, error) {
	scanCols := []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"}
	scanSchema, err := db.Lineitem.Schema().Project(scanCols...)
	if err != nil {
		return nil, err
	}
	agg, err := relop.NewHashAgg(scanSchema, q1FamilyGroupBy(variant), q1AggSpecs(), nil)
	if err != nil {
		return nil, err
	}
	emit, result := relop.Collect(agg.OutSchema())
	return runScanInto(db.Lineitem, Q1Pred(), scanCols, agg, emit, result)
}
