package tpch

// This file is the closed-form cardinality model: per-operator row estimates
// derived from the generator's known distributions, in the same spirit as the
// work model in internal/core — one set of offline-calibrated constants, no
// runtime sampling. The sharing model already prices each subplan's work in
// this currency (rows in, rows out); here the same estimates flow into the
// physical layer as pre-sizing hints for hash builds, aggregate group maps,
// sort buffers, and result sinks (NodeSpec.RowsHint), so a well-estimated
// operator allocates its working set once instead of growing it
// incrementally. Estimates are advisory: a wrong one costs the usual
// incremental growth, never correctness — the byte-identical-results tests in
// families_test.go hold with hints on or off.
//
// Generator facts the constants encode (see gen.go):
//
//   - each order carries 1 + intn(7) lineitems — mean 4;
//   - l_commitdate - o_orderdate is uniform [30, 90] while l_receiptdate -
//     o_orderdate is the sum of uniform [1, 121] and [1, 30] (mean ≈ 77,
//     wide spread), so P(commit < receipt) is exactly 153/242 ≈ 0.632;
//   - 1 comment in 33 places "special" at a uniform one of its 3–7 words,
//     followed by "requests" unless "special" is the last word, so Q13's NOT
//     LIKE filter keeps exactly 22553/23100 ≈ 0.976 of orders (not 32/33:
//     a trailing "special" still passes);
//   - o_orderdate is uniform over [DateEpochStart, DateOrderEnd], so a date
//     window keeps its fractional share of orders;
//   - o_orderpriority is uniform over the 5 priorities.

// Calibrated selectivity constants.
const (
	// avgLineitemsPerOrder is the mean lineitem fan-out per order.
	avgLineitemsPerOrder = 4.0
	// lateCommitSelectivity is P(l_commitdate < l_receiptdate) under the
	// generator's date offsets — Q4's build-side filter.
	lateCommitSelectivity = 153.0 / 242.0
	// nonSpecialSelectivity is the fraction of orders whose comment does NOT
	// match Q13's special-requests pattern.
	nonSpecialSelectivity = 22553.0 / 23100.0
)

// orderDateFraction returns the share of the generated o_orderdate domain
// covered by the window [lo, hi).
func orderDateFraction(lo, hi int64) float64 {
	span := float64(DateOrderEnd - DateEpochStart + 1)
	if hi > DateOrderEnd+1 {
		hi = DateOrderEnd + 1
	}
	if lo < DateEpochStart {
		lo = DateEpochStart
	}
	if hi <= lo || span <= 0 {
		return 0
	}
	return float64(hi-lo) / span
}

// EstimateQ4BuildRows estimates the late-commit lineitem rows hashed by Q4's
// semi-join build — the map and row-buffer pre-size of the shared build.
func EstimateQ4BuildRows(db *DB) int {
	return int(lateCommitSelectivity * float64(db.Lineitem.NumRows()))
}

// EstimateOrdersWindowRows estimates the orders falling in the orderdate
// window [lo, hi) — Q4's probe-side cardinality.
func EstimateOrdersWindowRows(db *DB, lo, hi int64) int {
	return int(orderDateFraction(lo, hi) * float64(db.Orders.NumRows()))
}

// EstimateQ13BuildRows estimates the orders surviving Q13's comment filter —
// the rows hashed (keyed by o_custkey) by the family's shared outer-join
// build.
func EstimateQ13BuildRows(db *DB) int {
	return int(nonSpecialSelectivity * float64(db.Orders.NumRows()))
}

// EstimateCustomerRangeRows estimates the customers in the key range
// [lo, hi) — Q13's probe-side cardinality (customer keys are dense 1..N).
func EstimateCustomerRangeRows(db *DB, lo, hi int64) int {
	n := int64(db.Customer.NumRows())
	if hi > n+1 {
		hi = n + 1
	}
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		return 0
	}
	return int(hi - lo)
}

// Group-count estimates for the benchmark aggregates: these bound output
// cardinality, so they size both group maps and result sinks.
const (
	// Q1Groups is the distinct (l_returnflag, l_linestatus) combinations the
	// generator produces: {R,A}×F plus N×{O,F}.
	Q1Groups = 4
	// Q4Groups is the o_orderpriority domain size.
	Q4Groups = 5
	// Q13DistGroups caps the distinct per-customer order counts Q13's outer
	// distribution sees (counts concentrate well below this under the
	// generator's ~10 orders/customer mean).
	Q13DistGroups = 64
)
