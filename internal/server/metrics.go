package server

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/storage"
)

// This file assembles the server's unified metrics registry: the cluster
// (its shards labelled shard="<i>" when there are several; its one worker
// pool, work exchange and cache once), the server's own admission-path
// counters, and the
// process-wide page pool, all exported in Prometheus text format by
// MetricsHandler — the payload behind cordobad's -metrics endpoint.

// Metrics returns the server's metrics registry, building it on first use.
// Registration is closure-based sampling, so the registry adds no cost to
// the paths it observes.
func (s *Server) Metrics() *obs.Registry {
	s.metricsOnce.Do(func() {
		r := obs.NewRegistry()
		s.cluster.RegisterMetrics(r, nil)

		// Server front door: admission outcomes and backlog. The snapshot
		// closure keeps one lock acquisition per scrape of these.
		snap := func(pick func(Stats) float64) func() float64 {
			return func() float64 {
				s.mu.Lock()
				st := Stats{
					Completed: s.completed,
					Shed:      s.shed,
					Errors:    s.errored,
					Queued:    s.queued,
					Active:    s.inflight,
				}
				s.mu.Unlock()
				return pick(st)
			}
		}
		r.CounterFunc("cordoba_queries_total", "Queries answered ok.", nil,
			snap(func(st Stats) float64 { return float64(st.Completed) }))
		r.CounterFunc("cordoba_shed_total", "Submissions refused by admission control or drain.", nil,
			snap(func(st Stats) float64 { return float64(st.Shed) }))
		r.CounterFunc("cordoba_request_errors_total", "Error responses (bad requests, unknown families, engine failures).", nil,
			snap(func(st Stats) float64 { return float64(st.Errors) }))
		r.GaugeFunc("cordoba_queued", "Backlog across tenant FIFOs.", nil,
			snap(func(st Stats) float64 { return float64(st.Queued) }))
		r.GaugeFunc("cordoba_inflight", "Admitted queries not yet answered.", nil,
			snap(func(st Stats) float64 { return float64(st.Active) }))
		for _, d := range []string{"admit-shared", "admit-alone", "queue"} {
			d := d
			r.CounterFunc("cordoba_admissions_total", "Admitted queries by admission decision.",
				obs.Labels{"decision": d}, func() float64 {
					s.mu.Lock()
					defer s.mu.Unlock()
					return float64(s.admissions[d])
				})
		}

		// Process-wide page pool.
		r.CounterFunc("cordoba_pagepool_gets_total", "Column allocations requested from the page pool.", nil, func() float64 {
			g, _, _ := storage.PagePoolStats()
			return float64(g)
		})
		r.CounterFunc("cordoba_pagepool_hits_total", "Column allocations served by a pooled buffer.", nil, func() float64 {
			_, h, _ := storage.PagePoolStats()
			return float64(h)
		})
		r.CounterFunc("cordoba_pagepool_puts_total", "Column buffers returned to the page pool.", nil, func() float64 {
			_, _, p := storage.PagePoolStats()
			return float64(p)
		})
		s.metrics = r
	})
	return s.metrics
}

// MetricsHandler serves the registry in Prometheus text exposition format —
// mount it at /metrics next to the pprof mux.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Metrics().WritePrometheus(w)
	})
}
