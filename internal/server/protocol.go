// Package server puts a network front door on the staged sharing engine:
// cordobad. Clients speak a line-delimited JSON protocol over TCP — one
// request object per line, one response object per line, correlated by id,
// with responses allowed to arrive out of order (submissions complete
// asynchronously, so a pipelined connection gets each result the moment the
// engine finishes it).
//
// Every query passes model-driven admission control (core.Admit) before it
// touches the engine: a beneficial share admits even past saturation, an
// unshared query admits only into headroom, a saturated arrival queues on
// its tenant's FIFO while the predicted wait fits the patience bound, and
// everything else is shed immediately — backpressure in the same currency
// as sharing, not a hard-coded limit.
package server

import "repro/internal/obs"

// Request is one client line. Op selects the kind: a query submission (the
// default), a stats probe, a trace dump, or a ping.
type Request struct {
	// ID correlates the response; the server echoes it verbatim.
	ID string `json:"id"`
	// Op is "query" (default when empty), "stats", "trace", or "ping".
	Op string `json:"op,omitempty"`
	// Tenant names the submitter's FIFO queue ("" = "default"). Queued
	// admission is FIFO per tenant, round-robin across tenants.
	Tenant string `json:"tenant,omitempty"`
	// Family is the named query family ("Q1", "Q4", "Q6", "Q13" — see
	// tpch.Families).
	Family string `json:"family,omitempty"`
	// Variant selects the family parameterization (reduced modulo the
	// family's variant count).
	Variant int `json:"variant,omitempty"`
	// Limit caps how many recent traces an op "trace" request returns per
	// engine (0 = a server default).
	Limit int `json:"limit,omitempty"`
}

// Response is one server line.
type Response struct {
	// ID echoes the request id.
	ID string `json:"id"`
	// Status is "ok" (result follows), "shed" (refused by admission control
	// or drain), or "error" (malformed request, unknown family, engine
	// failure).
	Status string `json:"status"`
	// Decision is the admission verdict that routed the query:
	// "admit-shared", "admit-alone", "queue" (admitted after waiting), or
	// "shed"; "draining" marks a refusal during shutdown.
	Decision string `json:"decision,omitempty"`
	// Rows is the result row count (status "ok").
	Rows int `json:"rows,omitempty"`
	// QueueMS is the wall-clock time the query waited in its tenant FIFO
	// before admission (0 for immediate admissions).
	QueueMS float64 `json:"queue_ms,omitempty"`
	// LatencyMS is the wall-clock time from arrival to completion, queueing
	// included (status "ok").
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// Error describes a status "error" response.
	Error string `json:"error,omitempty"`
	// Stats answers an op "stats" request.
	Stats *Stats `json:"stats,omitempty"`
	// Traces answers an op "trace" request: recent query lifecycle traces,
	// oldest first (across every shard on a sharded server).
	Traces []obs.TraceRecord `json:"traces,omitempty"`
}

// Response status values.
const (
	StatusOK    = "ok"
	StatusShed  = "shed"
	StatusError = "error"
)

// DecisionDraining marks refusals issued during graceful shutdown.
const DecisionDraining = "draining"

// Stats is a point-in-time server snapshot.
type Stats struct {
	// Completed counts queries answered with status "ok".
	Completed int64 `json:"completed"`
	// Shed counts refusals (admission control plus drain).
	Shed int64 `json:"shed"`
	// Errors counts status "error" responses.
	Errors int64 `json:"errors"`
	// Active is the engine's in-flight query count.
	Active int `json:"active"`
	// Queued is the total backlog across tenant FIFOs.
	Queued int `json:"queued"`
	// Admissions breaks admitted queries down by decision label.
	Admissions map[string]int64 `json:"admissions,omitempty"`
	// HashBuilds/BuildJoins/InflightAttaches/PivotJoins mirror the engine's
	// sharing counters.
	HashBuilds       int64         `json:"hash_builds,omitempty"`
	BuildJoins       int64         `json:"build_joins,omitempty"`
	InflightAttaches int64         `json:"inflight_attaches,omitempty"`
	PivotJoins       map[int]int64 `json:"pivot_joins,omitempty"`
	// CacheHits/CacheMisses/CacheEvictions/CacheBytes mirror the keep-alive
	// cache counters (zero without a cache).
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	CacheEvictions int64 `json:"cache_evictions,omitempty"`
	CacheBytes     int64 `json:"cache_bytes,omitempty"`
	// CompileHits/CompileMisses mirror the engine's submit-path compile
	// cache: hits are submits served by a memoized compile artifact.
	CompileHits   int64 `json:"compile_hits,omitempty"`
	CompileMisses int64 `json:"compile_misses,omitempty"`
	// Steals/Parks mirror the scheduler's work-stealing balance: tasks taken
	// from a peer worker's queue, and idle-park episodes (of the one pool
	// every shard runs on).
	Steals int64 `json:"steals,omitempty"`
	Parks  int64 `json:"parks,omitempty"`
	// PoolGets/PoolHits/PoolPuts mirror the process-wide page pool: column
	// allocations requested, served from the pool, and returned to it.
	PoolGets int64 `json:"pool_gets,omitempty"`
	PoolHits int64 `json:"pool_hits,omitempty"`
	PoolPuts int64 `json:"pool_puts,omitempty"`
	// BusJoins counts cross-shard attaches through the artifact bus: queries
	// that probed a hash table built on a different shard (sharded servers
	// only).
	BusJoins int64 `json:"bus_joins,omitempty"`
	// Scatters/Routed count the cluster's routing decisions: plans executed
	// scatter-gather across every shard versus routed whole to one shard (an
	// unsharded server routes every plan whole).
	Scatters int64 `json:"scatters,omitempty"`
	Routed   int64 `json:"routed,omitempty"`
	// Shards holds one counter row per engine shard when the server runs
	// sharded (Config.Shards > 1); the top-level engine counters then
	// aggregate the whole cluster.
	Shards []ShardStats `json:"shards,omitempty"`
}

// ShardStats is one engine shard's slice of a sharded server's counters.
// A scattered query contributes to Completed on every shard it ran a
// partial on; the server-level Completed counts it once.
type ShardStats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Active is this shard's in-flight query count.
	Active int `json:"active"`
	// Completed counts queries (whole or partial) this shard finished.
	Completed int64 `json:"completed"`
	// HashBuilds counts shared hash builds this shard executed; with the
	// cross-shard bus deduplicating, a replicated build subtree runs on
	// exactly one shard however many probed it.
	HashBuilds int64 `json:"hash_builds"`
	// BuildJoins counts build-share attaches on this shard (local and bus).
	BuildJoins int64 `json:"build_joins"`
	// BusJoins counts this shard's attaches to build states owned by OTHER
	// shards.
	BusJoins int64 `json:"bus_joins"`
	// CompileHits/CompileMisses mirror this shard's compile cache.
	CompileHits   int64 `json:"compile_hits"`
	CompileMisses int64 `json:"compile_misses"`
}
