package server_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// hasKind reports whether a trace carries at least one event of the kind.
func hasKind(rec obs.TraceRecord, kind string) bool {
	for _, e := range rec.Events {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// The trace wire op must return the complete lifecycle span chain — submit,
// compile verdict, pivot choice with the model's predicted benefit, the
// admission verdict, and a completion event pairing predicted with measured
// benefit — for queries that just ran.
func TestServerTraceOp(t *testing.T) {
	const workers = 2
	_, addr := startServer(t, server.Config{
		DB:     db(t),
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare},
		Policy: subplanPolicy(t, workers),
	})
	w := dialWire(t, addr)

	// One query run to completion alone first: the measured-benefit audit
	// converts u′ into an expected wall time via a calibration learned from
	// alone-like runs, so without a solo completion no trace would carry a
	// measured value. Q4 cannot parallelize (its plan has a join), so on an
	// idle engine it anchors a group that never grows — exactly an
	// alone-like run — where an idle Q1 would run as partitioned clones
	// (kind "parallel") and never feed the calibration.
	w.send(server.Request{ID: "warm", Family: "Q4", Variant: 0})
	if resp := w.recv(1)["warm"]; resp.Status != server.StatusOK {
		t.Fatalf("warm query: %+v", resp)
	}

	const n = 6
	for i := 0; i < n; i++ {
		w.send(server.Request{ID: fmt.Sprintf("q%d", i), Family: "Q1", Variant: 0})
	}
	for id, resp := range w.recv(n) {
		if resp.Status != server.StatusOK {
			t.Fatalf("%s: status %q (err %q)", id, resp.Status, resp.Error)
		}
	}

	w.send(server.Request{ID: "tr", Op: "trace", Limit: 16})
	resp := w.recv(1)["tr"]
	if resp.Status != server.StatusOK {
		t.Fatalf("trace op: %+v", resp)
	}
	if len(resp.Traces) < n {
		t.Fatalf("trace op returned %d traces, want >= %d", len(resp.Traces), n)
	}

	var sawMeasured bool
	for _, rec := range resp.Traces {
		if rec.Signature == "" || rec.ID == 0 {
			t.Fatalf("trace missing identity: %+v", rec)
		}
		for _, kind := range []string{"submit", "compile", "pivot", "admit", "complete"} {
			if !hasKind(rec, kind) {
				t.Fatalf("trace %d (%s) lacks %q span: %+v", rec.ID, rec.Signature, kind, rec.Events)
			}
		}
		if rec.Quanta <= 0 {
			t.Fatalf("trace %d: %d quanta, want > 0", rec.ID, rec.Quanta)
		}
		for _, e := range rec.Events {
			if e.Kind == "complete" {
				if e.Predicted <= 0 {
					t.Fatalf("trace %d: complete event without predicted benefit: %+v", rec.ID, e)
				}
				if e.Measured > 0 {
					sawMeasured = true
				}
			}
		}
	}
	if !sawMeasured {
		t.Fatal("no trace paired a measured benefit with its prediction")
	}
}

// The unified registry must span engine, scheduler, cache, and server
// counter families (>= 20 series) and report the completed-query counter the
// smoke test scrapes.
func TestServerMetricsExposition(t *testing.T) {
	const workers = 2
	s, addr := startServer(t, server.Config{
		DB:     db(t),
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare},
		Policy: subplanPolicy(t, workers),
	})
	w := dialWire(t, addr)
	w.send(server.Request{ID: "q", Family: "Q6", Variant: 0})
	if resp := w.recv(1)["q"]; resp.Status != server.StatusOK {
		t.Fatalf("query: %+v", resp)
	}

	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	series := 0
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	if series < 20 {
		t.Fatalf("exposition has %d series, want >= 20:\n%s", series, out)
	}
	for _, fam := range []string{
		"cordoba_queries_total 1",
		"cordoba_engine_completed_total",
		"cordoba_sched_steals_total",
		"cordoba_cache_hits_total",
		"cordoba_pagepool_gets_total",
	} {
		if !strings.Contains(out, fam) {
			t.Fatalf("exposition missing %q:\n%s", fam, out)
		}
	}

	if strings.Contains(out, `shard="`) {
		t.Fatalf("an unsharded server's exposition carries a shard label:\n%s", out)
	}

	// The sharded topology registers every shard under a shard label.
	sh, _ := startServer(t, server.Config{
		DB:     db(t),
		Shards: 2,
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare},
		Policy: subplanPolicy(t, workers),
	})
	b.Reset()
	if err := sh.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`shard="0"`, `shard="1"`, "cordoba_cluster_scatters_total"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("sharded exposition missing %q", want)
		}
	}
}

// A sharded server runs every shard on one worker pool, so its scheduler
// counters exist once: the Prometheus exposition carries each
// cordoba_sched_* and page-queue series exactly once, with no per-shard
// copies, and its steals series is Stats().Steals, the pool's count, not a
// sum across shards.
func TestServerShardedPoolCountersOnce(t *testing.T) {
	const workers = 1
	s, addr := startServer(t, server.Config{
		DB:     db(t),
		Shards: 2,
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare},
		Policy: subplanPolicy(t, workers),
	})
	w := dialWire(t, addr)
	for i := 0; i < 8; i++ {
		w.send(server.Request{ID: fmt.Sprint(i), Family: "Q1", Variant: i})
	}
	for id, resp := range w.recv(8) {
		if resp.Status != server.StatusOK {
			t.Fatalf("%s: %+v", id, resp)
		}
	}

	s.Drain() // every task done: no steal lands between the reads below
	st := s.Stats()

	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		if strings.HasPrefix(name, "cordoba_sched_") || strings.HasPrefix(name, "cordoba_pagequeue_") ||
			strings.HasPrefix(name, "cordoba_cluster_steals") {
			seen[name]++
		}
	}
	for _, name := range []string{
		"cordoba_sched_steals_total",
		"cordoba_sched_parks_total",
		"cordoba_sched_runqueue_depth",
		"cordoba_sched_live_tasks",
		"cordoba_pagequeue_buffered_pages",
	} {
		if seen[name] != 1 {
			t.Errorf("%s appears %d times, want once (seen %v)", name, seen[name], seen)
		}
	}
	if len(seen) != 5 {
		t.Errorf("unexpected pool series %v", seen)
	}
	if want := fmt.Sprintf("cordoba_sched_steals_total %d\n", st.Steals); !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
}
