package core

// This file extends the analytical model across the process boundary the
// rest of the package stays inside: scatter-gather execution over k engine
// shards. Range partitioning divides every pipeline stage's work by k (each
// shard scans a disjoint 1/k of the base data and runs the plan's partial
// form over it), but the coordinator pays a gather stage the single-engine
// plan never has: one partial-result hand-off per shard, priced at the
// pivot's per-consumer cost s — the same coefficient the fan-out and the
// clone merge charge, applied once per shard rather than once per consumer
// or per page. The term that decides scatter-vs-local is therefore
//
//	T(k) = u'/k + s·(k-1)         (T(1) = u', no gather on one shard)
//
// which shrinks hyperbolically in the shard-local arm and grows linearly in
// the gather arm: tiny queries (u' ≈ s) lose to the gather cost and should
// run on a single shard, scan-heavy queries (u' ≫ s) scatter profitably up
// to k* ≈ √(u'/s). The cluster's submit router consults ShouldScatter with
// exactly this term.

// ShardGather returns the coordinator-side gather work of a k-shard
// scatter-gather execution: one partial-stream hand-off per shard beyond the
// first, at the pivot's per-consumer cost s. One shard gathers nothing.
func ShardGather(q Query, k int) float64 {
	if k <= 1 {
		return 0
	}
	return float64(k-1) * q.PivotS
}

// ShardT returns the modeled execution time (in work units) of one query
// scattered over k shards, each shard otherwise idle: the query's total work
// u' divides evenly across the shards' disjoint partitions, plus the serial
// gather term.
func ShardT(q Query, k int) float64 {
	if k < 1 {
		k = 1
	}
	return q.UPrime()/float64(k) + ShardGather(q, k)
}

// ShardSpeedup returns the predicted speedup of scattering one query over k
// shards versus running it whole on one: T(1)/T(k). Values above 1 favor
// scattering. A zero-work model reports 1 (no basis to prefer either).
func ShardSpeedup(q Query, k int) float64 {
	t1, tk := ShardT(q, 1), ShardT(q, k)
	if t1 == 0 || tk == 0 {
		return 1
	}
	return t1 / tk
}

// ShouldScatter reports whether scattering q over k shards is predicted
// faster than running it whole on one shard — the gather-cost-vs-local-
// speedup routing test the cluster submit path applies. Ties keep the
// simpler regime (run whole).
func ShouldScatter(q Query, k int) bool {
	return ShardSpeedup(q, k) > 1
}
