package workload_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// startServer brings a cordobad server up on a random loopback port.
func startServer(t *testing.T, workers int) (*server.Server, string) {
	return startShardedServer(t, workers, 1)
}

// startShardedServer brings up a server over a cluster of engine shards.
func startShardedServer(t *testing.T, workers, shards int) (*server.Server, string) {
	t.Helper()
	db := tpch.MustGenerate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	pol, _, err := policy.ByName("subplan", core.NewEnv(float64(workers)), workers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{
		DB:     db,
		Shards: shards,
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare},
		Policy: policy.ForEngine(pol),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Shutdown)
	return s, ln.Addr().String()
}

// The pipelined client must correlate concurrent in-flight requests and
// fetch server stats.
func TestClientPipelines(t *testing.T) {
	_, addr := startServer(t, 2)
	c, err := workload.DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var chans []<-chan server.Response
	for i := 0; i < 6; i++ {
		ch, err := c.Submit(server.Request{Family: "Q6", Variant: i % 3})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		resp, ok := <-ch
		if !ok || resp.Status != server.StatusOK || resp.Rows <= 0 {
			t.Fatalf("request %d: ok=%v resp=%+v", i, ok, resp)
		}
	}
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 6 {
		t.Fatalf("server completed %d, want 6", st.Completed)
	}
}

// An open-loop Poisson run above single-query pace must complete without
// errors: every arrival is answered (ok or shed, never a hang), latencies
// land in the histogram, and the tail quantiles are nonzero.
func TestRunOpenLoopPoisson(t *testing.T) {
	_, addr := startServer(t, 2)
	res, err := workload.RunOpenLoop(workload.OpenLoopConfig{
		Addr:        addr,
		Arrivals:    workload.NewPoisson(300, 11),
		MaxArrivals: 60,
		Conns:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 60 {
		t.Fatalf("offered %d, want 60", res.Offered)
	}
	if got := res.OK + res.Shed + res.Errors + res.Lost; got != res.Offered {
		t.Fatalf("response accounting: ok=%d shed=%d err=%d lost=%d vs offered=%d",
			res.OK, res.Shed, res.Errors, res.Lost, res.Offered)
	}
	if res.Errors != 0 || res.Lost != 0 {
		t.Fatalf("open-loop run errored: %+v", res)
	}
	if res.OK == 0 {
		t.Fatal("open-loop run completed nothing")
	}
	if uint64(res.OK) != res.Latency.Count() {
		t.Fatalf("histogram holds %d samples for %d OK responses", res.Latency.Count(), res.OK)
	}
	if res.Latency.P99() <= 0 || res.Latency.P50() > res.Latency.P99() {
		t.Fatalf("tail quantiles inconsistent: %s", res.Latency)
	}
}

// Against a sharded server the open-loop report must carry one counter row
// per shard plus the cluster aggregate; an unsharded server's stats render
// nothing.
func TestShardReport(t *testing.T) {
	_, addr := startShardedServer(t, 2, 2)
	res, err := workload.RunOpenLoop(workload.OpenLoopConfig{
		Addr:        addr,
		Arrivals:    workload.NewPoisson(300, 7),
		MaxArrivals: 12,
		Conns:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 {
		t.Fatal("open-loop run against the sharded server completed nothing")
	}
	c, err := workload.DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	rep := workload.ShardReport(st)
	for _, want := range []string{"shard 0:", "shard 1:", "cluster: shards=2"} {
		if !strings.Contains(rep, want) {
			t.Errorf("shard report lacks %q:\n%s", want, rep)
		}
	}
	if strings.Count(rep, "\n") != 3 {
		t.Errorf("shard report should be 3 lines (2 shards + aggregate):\n%s", rep)
	}
	if workload.ShardReport(server.Stats{}) != "" {
		t.Error("unsharded stats rendered a shard report")
	}
}

// The trace op returns the served queries' lifecycle traces, and
// TraceReport renders each as a header line followed by one indented line
// per span event.
func TestClientTraces(t *testing.T) {
	_, addr := startServer(t, 2)
	c, err := workload.DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if resp, err := c.Do(server.Request{Family: "Q6", Variant: i}); err != nil || resp.Status != server.StatusOK {
			t.Fatalf("query %d: %+v, %v", i, resp, err)
		}
	}
	recs, err := c.Traces(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("trace op returned no traces after three queries")
	}
	if one, err := c.Traces(1); err != nil || len(one) != 1 {
		t.Fatalf("Traces(1) = %d records, %v; want 1", len(one), err)
	}
	lines := strings.Split(strings.TrimSuffix(workload.TraceReport(recs), "\n"), "\n")
	var want []string
	for _, r := range recs {
		want = append(want, fmt.Sprintf("trace %d %s ", r.ID, r.Signature))
		for _, e := range r.Events {
			want = append(want, "  "+fmt.Sprintf("%9.3fms %-8s", e.OffsetMS, e.Kind))
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, want[i]) {
			t.Errorf("report line %d = %q, want prefix %q", i, l, want[i])
		}
	}
	if workload.TraceReport(nil) != "" {
		t.Error("no traces rendered a report")
	}
}
