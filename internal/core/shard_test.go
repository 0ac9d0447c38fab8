package core

import (
	"math"
	"testing"
)

// shardQ is a scan-heavy query: u' = 20, gather hand-off s = 0.5.
func shardQ() Query {
	return Query{Name: "shard", Below: []float64{10}, PivotW: 9, PivotS: 0.5, Above: []float64{0.5}}
}

// ShardT must reduce to u' on one shard and decompose exactly into the
// divided local arm plus the linear gather arm beyond it.
func TestShardT(t *testing.T) {
	q := shardQ()
	u := q.UPrime()
	if got := ShardT(q, 1); got != u {
		t.Fatalf("ShardT(1) = %g, want u' = %g", got, u)
	}
	if got := ShardGather(q, 1); got != 0 {
		t.Fatalf("ShardGather(1) = %g, want 0", got)
	}
	for _, k := range []int{2, 4, 8} {
		want := u/float64(k) + float64(k-1)*q.PivotS
		if got := ShardT(q, k); math.Abs(got-want) > 1e-12 {
			t.Fatalf("ShardT(%d) = %g, want %g", k, got, want)
		}
	}
	if got := ShardT(q, 0); got != u {
		t.Fatalf("ShardT(0) = %g, want clamp to 1 shard (%g)", got, u)
	}
}

// Scan-heavy queries (u' >> s) must scatter profitably and tiny queries
// (u' ~ s) must not — the routing threshold the cluster applies.
func TestShouldScatter(t *testing.T) {
	heavy := shardQ() // u'=20, s=0.5: T(4)=5+1.5 < 20
	if !ShouldScatter(heavy, 4) {
		t.Error("scan-heavy query should scatter over 4 shards")
	}
	tiny := Query{Name: "tiny", PivotW: 0.1, PivotS: 2} // gather dwarfs the saving
	if ShouldScatter(tiny, 4) {
		t.Error("tiny query should run whole")
	}
	if ShouldScatter(heavy, 1) {
		t.Error("one shard is never a scatter")
	}
}

// ShardSpeedup is T(1)/T(k) and degrades gracefully on zero-work models.
func TestShardSpeedup(t *testing.T) {
	q := shardQ()
	want := ShardT(q, 1) / ShardT(q, 4)
	if got := ShardSpeedup(q, 4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("speedup = %g, want %g", got, want)
	}
	if got := ShardSpeedup(Query{}, 4); got != 1 {
		t.Fatalf("zero-work speedup = %g, want 1", got)
	}
}
