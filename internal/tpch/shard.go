package tpch

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/storage"
)

// This file maps the benchmark's query families onto a sharded cluster:
// which base table each family partitions, which it replicates, and the
// scatter-gather plan each (family, variant) compiles to. The choices follow
// each plan's probe side:
//
//   - Q1 and Q6 scan lineitem and aggregate — lineitem partitions and each
//     shard aggregates its slice (the grouping columns are independent of
//     the partition key, so partial aggregates merge exactly);
//   - Q4 probes orders against the late-commit lineitem build — orders
//     partitions while lineitem replicates, so the build subtree keeps its
//     shard-agnostic fingerprint and the cross-shard bus runs ONE hash build
//     for the whole cluster;
//   - Q13 probes customers against the filtered-orders build — customer
//     partitions (each custkey lands on exactly one shard, so the per-
//     customer counts are complete per shard) while orders replicates,
//     again one build cluster-wide.
type ShardedDB struct {
	// Full is the unpartitioned database; replicated scans and route-whole
	// submissions read it directly.
	Full *DB
	// N is the shard count the partitions were cut for.
	N int
	// Lineitem, Orders, Customer hold shard i's partition at index i:
	// lineitem ranged on l_orderkey, orders on o_orderkey, customer on
	// c_custkey. With N == 1 each holds the base table itself.
	Lineitem []*storage.Table
	Orders   []*storage.Table
	Customer []*storage.Table
}

// NewShardedDB range-partitions db for an n-shard cluster. The partitions
// are snapshots cut once; every family plan for this topology remaps its
// partitioned scans through them.
func NewShardedDB(db *DB, n int) (*ShardedDB, error) {
	li, err := storage.RangePartition(db.Lineitem, "l_orderkey", n)
	if err != nil {
		return nil, err
	}
	ord, err := storage.RangePartition(db.Orders, "o_orderkey", n)
	if err != nil {
		return nil, err
	}
	cust, err := storage.RangePartition(db.Customer, "c_custkey", n)
	if err != nil {
		return nil, err
	}
	return &ShardedDB{Full: db, N: n, Lineitem: li, Orders: ord, Customer: cust}, nil
}

// partRemap returns a CompileScatter remap that substitutes shard i's
// partition for the one partitioned base table and leaves every other scan
// on its replicated original.
func partRemap(base *storage.Table, parts []*storage.Table) func(int, *storage.Table) *storage.Table {
	return func(shard int, tbl *storage.Table) *storage.Table {
		if tbl == base {
			return parts[shard]
		}
		return tbl
	}
}

// Q1FamilyShardPlan compiles one Q1 family variant for scatter-gather over
// the sharded lineitem.
func (s *ShardedDB) Q1FamilyShardPlan(pageRows, variant int) (engine.ShardPlan, error) {
	return engine.CompileScatter(Q1FamilySpec(s.Full, pageRows, variant), s.N,
		partRemap(s.Full.Lineitem, s.Lineitem))
}

// Q6FamilyShardPlan compiles one Q6 family variant for scatter-gather over
// the sharded lineitem.
func (s *ShardedDB) Q6FamilyShardPlan(pageRows, variant int) (engine.ShardPlan, error) {
	return engine.CompileScatter(Q6FamilySpec(s.Full, pageRows, variant), s.N,
		partRemap(s.Full.Lineitem, s.Lineitem))
}

// Q4FamilyShardPlan compiles one Q4 family variant for scatter-gather over
// the sharded orders. The lineitem build side stays replicated, so its
// subtree fingerprints identically on every shard and the cluster's bus
// shares one hash build across all of them.
func (s *ShardedDB) Q4FamilyShardPlan(pageRows, variant int) (engine.ShardPlan, error) {
	return engine.CompileScatter(Q4FamilySpec(s.Full, pageRows, variant), s.N,
		partRemap(s.Full.Orders, s.Orders))
}

// Q13FamilyShardPlan compiles one Q13 family variant for scatter-gather over
// the sharded customers. The filtered-orders build side stays replicated —
// one build cluster-wide — and each shard's per-customer counts are complete
// because every custkey lives on exactly one shard.
func (s *ShardedDB) Q13FamilyShardPlan(pageRows, variant int) (engine.ShardPlan, error) {
	return engine.CompileScatter(Q13FamilySpec(s.Full, pageRows, variant), s.N,
		partRemap(s.Full.Customer, s.Customer))
}

// ShardFamily pairs a query family with its scatter-gather compiler, for
// front ends (the server, the workload drivers, the benches) that rotate
// through the registry by name.
type ShardFamily struct {
	Name     string
	Variants int
	// Plan compiles one variant's ShardPlan for the given topology.
	Plan func(s *ShardedDB, pageRows, variant int) (engine.ShardPlan, error)
	// Reference executes one variant single-threaded — the same ground truth
	// the unsharded families check against.
	Reference func(db *DB, variant int) (*storage.Batch, error)
}

// ShardFamilies returns the scatter-gather family registry in rotation
// order — the same families and order as Families().
func ShardFamilies() []ShardFamily {
	return []ShardFamily{
		{Name: "Q1", Variants: Q1FamilyVariants, Plan: (*ShardedDB).Q1FamilyShardPlan, Reference: Q1FamilyReference},
		{Name: "Q6", Variants: Q6FamilyVariants, Plan: (*ShardedDB).Q6FamilyShardPlan, Reference: Q6FamilyReference},
		{Name: "Q4", Variants: Q4FamilyVariants, Plan: (*ShardedDB).Q4FamilyShardPlan, Reference: Q4FamilyReference},
		{Name: "Q13", Variants: Q13FamilyVariants, Plan: (*ShardedDB).Q13FamilyShardPlan, Reference: Q13FamilyReference},
	}
}

// CompileShardPlans compiles every (family, variant) ShardPlan for one
// topology, keyed "<family>/<variant>" — the table a front end routes
// submissions through.
func CompileShardPlans(s *ShardedDB, pageRows int) (map[string]engine.ShardPlan, error) {
	plans := make(map[string]engine.ShardPlan)
	for _, f := range ShardFamilies() {
		for v := 0; v < f.Variants; v++ {
			p, err := f.Plan(s, pageRows, v)
			if err != nil {
				return nil, fmt.Errorf("tpch: shard plan %s/%d: %w", f.Name, v, err)
			}
			plans[fmt.Sprintf("%s/%d", f.Name, v)] = p
		}
	}
	return plans, nil
}
