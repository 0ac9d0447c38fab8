package engine

import (
	"strconv"

	"repro/internal/obs"
)

// registerSchedMetrics registers a worker pool's scheduler and page-queue
// series.
func registerSchedMetrics(r *obs.Registry, s *Scheduler, labels obs.Labels) {
	r.CounterFunc("cordoba_sched_steals_total", "Tasks taken from a peer worker's run queue.", labels, func() float64 { return float64(s.Steals()) })
	r.CounterFunc("cordoba_sched_parks_total", "Idle-park episodes (worker found every queue empty).", labels, func() float64 { return float64(s.Parks()) })
	r.GaugeFunc("cordoba_sched_runqueue_depth", "Runnable tasks currently enqueued across workers.", labels, func() float64 { return float64(s.RunQueueDepth()) })
	r.GaugeFunc("cordoba_sched_live_tasks", "Tasks spawned and not yet done.", labels, func() float64 { return float64(s.Live()) })
	r.GaugeFunc("cordoba_pagequeue_buffered_pages", "Pages buffered across every inter-operator queue.", labels, func() float64 { return float64(s.QueuedPages()) })
}

// registerMetrics registers the engine's own series, everything but what
// the cluster's shards share (worker pool, work exchange, keep-alive cache):
// engine core, compile cache, tracer, and the model-accuracy audit, all as
// closures over state the engine already maintains, so scraping samples and
// the hot paths pay nothing. Each engine-counter series reads its value from
// a Counters snapshot. labels (a shard id) are attached to every series so
// several engines can share one registry.
func (e *Engine) registerMetrics(r *obs.Registry, labels obs.Labels) {
	cf := func(name, help string, fn func() int64) {
		r.CounterFunc(name, help, labels, func() float64 { return float64(fn()) })
	}
	gf := func(name, help string, fn func() float64) {
		r.GaugeFunc(name, help, labels, fn)
	}

	// Engine core.
	cf("cordoba_engine_completed_total", "Queries finished since startup.", func() int64 { return e.Counters().Completed })
	gf("cordoba_engine_active", "Submitted queries not yet completed.", func() float64 { return float64(e.Counters().Active) })
	cf("cordoba_engine_inflight_attaches_total", "Queries that joined a sharing group after its scan started.", func() int64 { return e.Counters().InflightAttaches })
	cf("cordoba_engine_parallel_runs_total", "Queries executed as partitioned clones.", func() int64 { return e.Counters().ParallelRuns })
	cf("cordoba_engine_parallel_clones_total", "Clone pipelines spawned for parallel runs.", func() int64 { return e.Counters().ParallelClones })
	cf("cordoba_engine_hash_builds_total", "Shared hash-join builds executed (sealed).", func() int64 { return e.Counters().HashBuilds })
	cf("cordoba_engine_build_joins_total", "Queries attached to an existing shared hash build.", func() int64 { return e.Counters().BuildJoins })
	cf("cordoba_engine_bus_joins_total", "Cross-shard build attaches through the artifact bus.", func() int64 { return e.Counters().BusJoins })
	cf("cordoba_engine_pivot_joins_total", "Queries merged into sharing groups at any pivot level.", func() int64 {
		var n int64
		for _, v := range e.Counters().PivotJoins {
			n += v
		}
		return n
	})

	// Submit-path compile cache.
	cf("cordoba_compile_hits_total", "Submissions served by a memoized compile artifact.", func() int64 { return e.Counters().CompileHits })
	cf("cordoba_compile_misses_total", "Submissions that compiled fresh.", func() int64 { return e.Counters().CompileMisses })

	// Lifecycle tracer occupancy.
	gf("cordoba_trace_retained", "Query traces currently retained in the ring.", func() float64 { return float64(e.tracer.Len()) })

	// Model-accuracy audit: per decision kind, decision counts and
	// measured/predicted error-ratio quantiles.
	r.RegisterAudit("cordoba_model", labels, e.audit)
}

// RegisterMetrics registers every shard's series — each under a shard="<i>"
// label merged into labels when there is more than one shard — plus, once,
// the series of what the shards share: the pool's scheduler series, the work
// exchange (the artifact bus on more than one shard), the keep-alive cache,
// and the cluster's own routing counters.
func (c *Cluster) RegisterMetrics(r *obs.Registry, labels obs.Labels) {
	for i, e := range c.shards {
		l := labels
		if len(c.shards) > 1 {
			l = make(obs.Labels, len(labels)+1)
			for k, v := range labels {
				l[k] = v
			}
			l["shard"] = strconv.Itoa(i)
		}
		e.registerMetrics(r, l)
	}
	registerSchedMetrics(r, c.sched, labels)

	// Work exchange (queue-depth style gauges over the shared-artifact
	// registry) and keep-alive cache, read through shard 0: every shard
	// shares them.
	e := c.shards[0]
	r.GaugeFunc("cordoba_exchange_entries", "Live work-exchange entries of every kind.", labels, func() float64 { return float64(e.scans.Entries()) })
	r.GaugeFunc("cordoba_exchange_circular_scans", "Circular scans in flight.", labels, func() float64 { return float64(e.scans.InFlight()) })
	r.GaugeFunc("cordoba_exchange_build_states", "Shared hash-build states in flight.", labels, func() float64 { return float64(e.scans.BuildStatesInFlight()) })
	r.GaugeFunc("cordoba_exchange_orphans", "Entries with no live consumer awaiting sweep.", labels, func() float64 { return float64(e.scans.Orphans()) })
	r.CounterFunc("cordoba_exchange_supersedes_total", "Entries superseded by a fresh publish.", labels, func() float64 { return float64(e.scans.SupersedeCount()) })
	r.CounterFunc("cordoba_exchange_sweep_reclaims_total", "Entries force-retired by the sweep.", labels, func() float64 { return float64(e.scans.SweepReclaims()) })
	r.CounterFunc("cordoba_cache_hits_total", "Lookups served from a retained artifact.", labels, func() float64 { return float64(e.Counters().Cache.Hits) })
	r.CounterFunc("cordoba_cache_misses_total", "Lookups that found nothing usable.", labels, func() float64 { return float64(e.Counters().Cache.Misses) })
	r.CounterFunc("cordoba_cache_evictions_total", "Retained artifacts dropped for memory pressure.", labels, func() float64 { return float64(e.Counters().Cache.Evictions) })
	r.CounterFunc("cordoba_cache_expirations_total", "Retained artifacts aged out by the TTL.", labels, func() float64 { return float64(e.Counters().Cache.Expirations) })
	r.GaugeFunc("cordoba_cache_bytes", "Current retained footprint.", labels, func() float64 { return float64(e.Counters().Cache.Bytes) })
	r.GaugeFunc("cordoba_cache_entries", "Currently retained artifacts.", labels, func() float64 { return float64(e.Counters().Cache.Entries) })

	r.CounterFunc("cordoba_cluster_scatters_total", "Plans executed scatter-gather.", labels, func() float64 { return float64(c.Counters().Scatters) })
	r.CounterFunc("cordoba_cluster_routed_total", "Plans routed whole to a single shard.", labels, func() float64 { return float64(c.Counters().Routed) })
	r.CounterFunc("cordoba_cluster_finished_total", "Cluster-level queries completed (scattered plans count once, at their gather).", labels, func() float64 { return float64(c.Counters().Finished) })
}
