package tpch

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/storage"
)

func shardCluster(t *testing.T, n int, opts engine.Options) *engine.Cluster {
	t.Helper()
	c, err := engine.NewCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// approxBatch compares batches row-for-row allowing float columns the tiny
// relative tolerance scatter-order summation legitimately perturbs.
func approxBatch(t *testing.T, what string, got, want *storage.Batch) {
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

// The sharded database must be an exact cover: every partitioned table's
// shards hold the base row count between them, under qualified names.
func TestShardedDBPartitions(t *testing.T) {
	db := smallDB(t)
	sdb, err := NewShardedDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		base  *storage.Table
		parts []*storage.Table
	}{
		{db.Lineitem, sdb.Lineitem},
		{db.Orders, sdb.Orders},
		{db.Customer, sdb.Customer},
	} {
		total := 0
		for i, p := range tc.parts {
			total += p.NumRows()
			if want := storage.PartitionName(tc.base.Name, i, 4); p.Name != want {
				t.Errorf("partition named %q, want %q", p.Name, want)
			}
		}
		if total != tc.base.NumRows() {
			t.Errorf("%s partitions hold %d rows, base has %d", tc.base.Name, total, tc.base.NumRows())
		}
	}
	// One shard keeps the base tables under canonical identity.
	one, err := NewShardedDB(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Lineitem[0] != db.Lineitem || one.Orders[0] != db.Orders || one.Customer[0] != db.Customer {
		t.Error("1-shard ShardedDB must alias the base tables")
	}
}

// Every family variant scattered over every shard count must reproduce the
// single-threaded reference: exactly for the integer-count families (Q4,
// Q13), and within float summation jitter for the sum-heavy ones (Q1, Q6).
func TestShardFamiliesMatchReference(t *testing.T) {
	db := smallDB(t)
	for _, k := range []int{1, 2, 4} {
		sdb, err := NewShardedDB(db, k)
		if err != nil {
			t.Fatal(err)
		}
		c := shardCluster(t, k, engine.Options{Workers: 2})
		for _, f := range ShardFamilies() {
			for v := 0; v < f.Variants; v++ {
				plan, err := f.Plan(sdb, 0, v)
				if err != nil {
					t.Fatalf("%s/%d over %d shards: %v", f.Name, v, k, err)
				}
				h, err := c.Submit(plan, nil)
				if err != nil {
					t.Fatalf("%s/%d over %d shards: %v", f.Name, v, k, err)
				}
				got, err := h.Wait()
				if err != nil {
					t.Fatalf("%s/%d over %d shards: %v", f.Name, v, k, err)
				}
				want, err := f.Reference(db, v)
				if err != nil {
					t.Fatal(err)
				}
				what := f.Name + " scattered"
				switch f.Name {
				case "Q4", "Q13":
					if renderBatch(t, got) != renderBatch(t, want) {
						t.Errorf("%s/%d over %d shards: result not byte-identical to reference", f.Name, v, k)
					}
				default:
					approxBatch(t, what, got, want)
				}
			}
		}
		if k > 1 && c.Counters().Scatters == 0 {
			t.Errorf("%d shards: no plan scattered", k)
		}
		c.Drain()
	}
}

// The cross-shard artifact bus must deduplicate the replicated build side of
// a scattered plan: one Q4 scattered over four shards runs exactly ONE
// lineitem hash build cluster-wide — shard 0 anchors it, the other three
// discover the in-flight state on the bus and probe the one sealed table.
// Run under -race this exercises concurrent multi-engine access to the
// shared build state.
func TestShardBusOneBuild(t *testing.T) {
	db := smallDB(t)
	const k = 4
	sdb, err := NewShardedDB(db, k)
	if err != nil {
		t.Fatal(err)
	}
	c := shardCluster(t, k, engine.Options{Workers: 2, StartPaused: true})
	plan, err := sdb.Q4FamilyShardPlan(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(plan, policy.Always{})
	if err != nil {
		t.Fatal(err)
	}
	// All four shard submissions land before any work runs: exactly one
	// shard anchored the build, the rest joined through the bus.
	if got := c.Counters().BusJoins; got != k-1 {
		t.Fatalf("bus joins = %d, want %d", got, k-1)
	}
	c.Start()
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if builds := c.Counters().HashBuilds; builds != 1 {
		t.Fatalf("cluster ran %d hash builds, want exactly 1", builds)
	}
	want, err := Q4FamilyReference(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if renderBatch(t, got) != renderBatch(t, want) {
		t.Error("bus-shared scattered result differs from reference")
	}
	c.Drain()
}

// A burst of different Q13 variants scattered together must still run one
// filtered-orders build cluster-wide: the replicated build subtree keys
// identically on every shard, whatever the probe-side variant.
func TestShardBusOneBuildAcrossVariants(t *testing.T) {
	db := smallDB(t)
	const k = 2
	sdb, err := NewShardedDB(db, k)
	if err != nil {
		t.Fatal(err)
	}
	c := shardCluster(t, k, engine.Options{Workers: 2, StartPaused: true})
	var handles []*engine.Handle
	for v := 0; v < Q13FamilyVariants; v++ {
		plan, err := sdb.Q13FamilyShardPlan(0, v)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Submit(plan, policy.Always{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	c.Start()
	for v, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		want, err := Q13FamilyReference(db, v)
		if err != nil {
			t.Fatal(err)
		}
		if renderBatch(t, got) != renderBatch(t, want) {
			t.Errorf("variant %d: scattered result differs from reference", v)
		}
	}
	if builds := c.Counters().HashBuilds; builds != 1 {
		t.Fatalf("cluster ran %d hash builds for %d scattered variants, want 1", builds, Q13FamilyVariants)
	}
	c.Drain()
}
