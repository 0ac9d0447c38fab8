package engine

import "repro/internal/artifact"

// Counters is a point-in-time copy of an engine's counters, every one since
// startup unless noted. The engine keeps the fields it owns in one Counters
// value updated under its lock; Counters() copies it under that lock and
// adds what other components own: the keep-alive cache's Stats and the
// worker pool's Steals and Parks.
type Counters struct {
	// Completed counts finished queries; Active counts submitted queries
	// not yet completed (a gauge).
	Completed int64
	Active    int
	// InflightAttaches counts queries that joined a sharing group after its
	// scan had started.
	InflightAttaches int64
	// ParallelRuns counts queries executed as partitioned clones;
	// ParallelClones the clone pipelines they spawned (Σ degree).
	ParallelRuns   int64
	ParallelClones int64
	// HashBuilds counts shared hash-join builds executed (sealed) — one per
	// build-sharing group however many members probed the table. Joins run
	// through the opaque single-query path are not counted.
	HashBuilds int64
	// BuildJoins counts queries that attached to an existing shared hash
	// build (the group's anchor shares with no one until someone joins, so
	// it is not counted); BusJoins the subset that attached through the
	// shared bus to a build state another engine published (always zero
	// without Options.Bus).
	BuildJoins int64
	BusJoins   int64
	// PivotJoins counts, per pivot node level, the queries merged into a
	// sharing group anchored there: submission-time joins plus in-flight
	// attaches, anchors not counted.
	PivotJoins map[int]int64
	// CompileHits counts submissions served by a memoized compile artifact;
	// CompileMisses those that compiled fresh (no PlanKey, first sight of a
	// family, a table epoch bump, or a structural mismatch under a reused
	// PlanKey).
	CompileHits   int64
	CompileMisses int64
	// Cache is the keep-alive cache's counters and footprint (zero without
	// a cache).
	Cache artifact.Stats
	// Steals counts tasks the pool's workers took from a peer's run queue,
	// Parks their idle-park episodes. Cluster shards share one pool, so
	// every shard reports the same pool-wide values.
	Steals int64
	Parks  int64
}

// Counters returns a snapshot of the engine's counters.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	n := e.n
	n.PivotJoins = make(map[int]int64, len(e.n.PivotJoins))
	for lvl, k := range e.n.PivotJoins {
		n.PivotJoins[lvl] = k
	}
	e.mu.Unlock()
	if e.cache != nil {
		n.Cache = e.cache.Stats()
	}
	n.Steals, n.Parks = e.sched.Steals(), e.sched.Parks()
	return n
}

// ClusterCounters is a point-in-time copy of a cluster's counters.
type ClusterCounters struct {
	// Counters sums the per-shard counters. A scattered plan counts in
	// Completed once per shard (see Finished for once per plan). The pool
	// and the keep-alive cache are shared, so Steals, Parks and Cache are
	// read once, not summed.
	Counters
	// Scatters counts plans executed scatter-gather, Routed plans routed
	// whole to a single shard, Finished cluster-level queries completed
	// (a scattered plan counts once, at its gather).
	Scatters int64
	Routed   int64
	Finished int64
	// Shards holds each shard's own snapshot, in shard order.
	Shards []Counters
}

// Counters returns a snapshot of every shard's counters and their total.
func (c *Cluster) Counters() ClusterCounters {
	t := ClusterCounters{Shards: make([]Counters, len(c.shards))}
	t.PivotJoins = make(map[int]int64)
	for i, e := range c.shards {
		n := e.Counters()
		t.Shards[i] = n
		t.Completed += n.Completed
		t.Active += n.Active
		t.InflightAttaches += n.InflightAttaches
		t.ParallelRuns += n.ParallelRuns
		t.ParallelClones += n.ParallelClones
		t.HashBuilds += n.HashBuilds
		t.BuildJoins += n.BuildJoins
		t.BusJoins += n.BusJoins
		t.CompileHits += n.CompileHits
		t.CompileMisses += n.CompileMisses
		for lvl, k := range n.PivotJoins {
			t.PivotJoins[lvl] += k
		}
	}
	t.Cache = t.Shards[0].Cache
	t.Steals, t.Parks = c.sched.Steals(), c.sched.Parks()
	c.mu.Lock()
	t.Scatters, t.Routed, t.Finished = c.scatters, c.routed, c.finished
	c.mu.Unlock()
	return t
}
