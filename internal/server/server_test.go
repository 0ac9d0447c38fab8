package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/tpch"
)

var (
	testDBOnce sync.Once
	testDB     *tpch.DB
)

func db(t *testing.T) *tpch.DB {
	t.Helper()
	testDBOnce.Do(func() {
		testDB = tpch.MustGenerate(tpch.Config{ScaleFactor: 0.002, Seed: 42})
	})
	return testDB
}

// startServer brings up a server on a random loopback port and registers
// its shutdown with the test.
func startServer(t *testing.T, cfg server.Config) (*server.Server, net.Addr) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Shutdown)
	return s, ln.Addr()
}

// wire is a test client: one connection, pipelined requests, responses
// collected by id.
type wire struct {
	t  *testing.T
	nc net.Conn
	sc *bufio.Scanner
}

func dialWire(t *testing.T, addr net.Addr) *wire {
	t.Helper()
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	sc := bufio.NewScanner(nc)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &wire{t: t, nc: nc, sc: sc}
}

func (w *wire) send(req server.Request) {
	w.t.Helper()
	line, err := json.Marshal(req)
	if err != nil {
		w.t.Fatal(err)
	}
	if _, err := w.nc.Write(append(line, '\n')); err != nil {
		w.t.Fatal(err)
	}
}

// recv reads n responses (any order) and returns them keyed by id.
func (w *wire) recv(n int) map[string]server.Response {
	w.t.Helper()
	out := make(map[string]server.Response, n)
	for _, resp := range w.recvInOrder(n) {
		out[resp.ID] = resp
	}
	return out
}

// recvInOrder reads n responses and returns them in the order they arrived.
func (w *wire) recvInOrder(n int) []server.Response {
	w.t.Helper()
	out := make([]server.Response, 0, n)
	w.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	for len(out) < n && w.sc.Scan() {
		var resp server.Response
		if err := json.Unmarshal(w.sc.Bytes(), &resp); err != nil {
			w.t.Fatalf("bad response line %q: %v", w.sc.Text(), err)
		}
		out = append(out, resp)
	}
	if len(out) < n {
		w.t.Fatalf("got %d/%d responses (scan err: %v)", len(out), n, w.sc.Err())
	}
	return out
}

func subplanPolicy(t *testing.T, workers int) engine.SharePolicy {
	t.Helper()
	pol, _, err := policy.ByName("subplan", core.NewEnv(float64(workers)), workers)
	if err != nil {
		t.Fatal(err)
	}
	return policy.ForEngine(pol)
}

// The server must answer every registered family over the wire, correlate
// out-of-order pipelined responses by id, serve stats and ping ops, and
// reject unknown families without dropping the connection.
func TestServerServesFamilies(t *testing.T) {
	const workers = 2
	_, addr := startServer(t, server.Config{
		DB:     db(t),
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare},
		Policy: subplanPolicy(t, workers),
	})
	w := dialWire(t, addr)

	var n int
	for _, f := range tpch.Families() {
		for v := 0; v < 2; v++ {
			w.send(server.Request{ID: fmt.Sprintf("%s-%d", f.Name, v), Family: f.Name, Variant: v})
			n++
		}
	}
	resps := w.recv(n)
	for id, resp := range resps {
		if resp.Status != server.StatusOK {
			t.Fatalf("%s: status %q (err %q)", id, resp.Status, resp.Error)
		}
		if resp.Rows <= 0 {
			t.Fatalf("%s: %d rows", id, resp.Rows)
		}
		switch resp.Decision {
		case core.AdmitShared.String(), core.AdmitAlone.String(), core.AdmitQueue.String():
		default:
			t.Fatalf("%s: unexpected decision %q", id, resp.Decision)
		}
		if resp.LatencyMS <= 0 {
			t.Fatalf("%s: latency %vms", id, resp.LatencyMS)
		}
	}

	w.send(server.Request{ID: "stats", Op: "stats"})
	w.send(server.Request{ID: "ping", Op: "ping"})
	w.send(server.Request{ID: "bogus", Family: "Q99"})
	resps = w.recv(3)
	if st := resps["stats"]; st.Status != server.StatusOK || st.Stats == nil || st.Stats.Completed != int64(n) {
		t.Fatalf("stats response: %+v", st)
	}
	// An unsharded server is a cluster of one: no shard rows and no bus
	// joins, every query routed whole and none scattered.
	if st := resps["stats"].Stats; st.Shards != nil || st.Scatters != 0 || st.Routed != int64(n) || st.BusJoins != 0 {
		t.Fatalf("unsharded stats: %+v, want no shard rows, no scatters or bus joins, and %d routed", st, n)
	}
	if resps["ping"].Status != server.StatusOK {
		t.Fatalf("ping response: %+v", resps["ping"])
	}
	if resps["bogus"].Status != server.StatusError {
		t.Fatalf("unknown family response: %+v", resps["bogus"])
	}
}

// A sharded server must answer every family over the wire through its
// cluster — scattering the scatterable plans — and its stats probe must
// carry one counter row per shard whose completions and builds sum to the
// cluster aggregate.
func TestServerSharded(t *testing.T) {
	const workers, shards = 2, 2
	s, addr := startServer(t, server.Config{
		DB:     db(t),
		Shards: shards,
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare},
		Policy: subplanPolicy(t, workers),
	})
	if s.Cluster() == nil || s.Cluster().NumShards() != shards {
		t.Fatal("sharded server did not build its cluster")
	}
	w := dialWire(t, addr)

	var n int
	for _, f := range tpch.Families() {
		for v := 0; v < 2; v++ {
			w.send(server.Request{ID: fmt.Sprintf("%s-%d", f.Name, v), Family: f.Name, Variant: v})
			n++
		}
	}
	for id, resp := range w.recv(n) {
		if resp.Status != server.StatusOK {
			t.Fatalf("%s: status %q (err %q)", id, resp.Status, resp.Error)
		}
		if resp.Rows <= 0 {
			t.Fatalf("%s: %d rows", id, resp.Rows)
		}
	}

	w.send(server.Request{ID: "stats", Op: "stats"})
	resp := w.recv(1)["stats"]
	if resp.Status != server.StatusOK || resp.Stats == nil {
		t.Fatalf("stats response: %+v", resp)
	}
	st := resp.Stats
	if st.Completed != int64(n) {
		t.Fatalf("completed %d, want %d", st.Completed, n)
	}
	if st.Scatters == 0 {
		t.Error("no plan scattered across the shards")
	}
	if int64(st.Scatters+st.Routed) != int64(n) {
		t.Errorf("scatters %d + routed %d != %d submissions", st.Scatters, st.Routed, n)
	}
	if len(st.Shards) != shards {
		t.Fatalf("%d shard rows, want %d", len(st.Shards), shards)
	}
	var completed, builds, compileHits, compileMisses int64
	for i, row := range st.Shards {
		if row.Shard != i {
			t.Errorf("shard row %d labeled %d", i, row.Shard)
		}
		completed += row.Completed
		builds += row.HashBuilds
		compileHits += row.CompileHits
		compileMisses += row.CompileMisses
	}
	// Every scattered plan completes once per shard, every routed plan once;
	// the per-shard rows must account for exactly that.
	if want := int64(shards)*st.Scatters + st.Routed; completed != want {
		t.Errorf("shard completions sum to %d, want %d", completed, want)
	}
	if builds != st.HashBuilds {
		t.Errorf("shard builds sum to %d, aggregate says %d", builds, st.HashBuilds)
	}
	if compileHits != st.CompileHits || compileMisses != st.CompileMisses {
		t.Errorf("shard compile rows (%d/%d) disagree with aggregate (%d/%d)",
			compileHits, compileMisses, st.CompileHits, st.CompileMisses)
	}
	// The bus deduplicated the replicated build sides: Q4 and Q13 ran twice
	// each, so cross-shard attaches must have happened.
	if st.BusJoins == 0 {
		t.Error("no cross-shard bus attaches for the replicated build sides")
	}
}

// With a window of one and a queue of one, a paused engine must hold the
// first query in flight, queue the second, and shed the third — then serve
// both admitted queries after the engine starts. Saturation never hangs a
// client: every request gets exactly one response.
func TestServerQueuesThenShedsAtSaturation(t *testing.T) {
	const workers = 2
	s, addr := startServer(t, server.Config{
		DB:         db(t),
		Engine:     engine.Options{Workers: workers, FanOut: engine.FanOutShare, StartPaused: true},
		Policy:     subplanPolicy(t, workers),
		Window:     1,
		QueueLimit: 1,
	})
	w := dialWire(t, addr)

	w.send(server.Request{ID: "q1", Family: "Q6"})
	w.send(server.Request{ID: "q2", Family: "Q6"})
	w.send(server.Request{ID: "q3", Family: "Q6"})
	// The shed decision is synchronous; the two admitted queries complete
	// only once the engine starts.
	shedResp := w.recv(1)
	if resp, ok := shedResp["q3"]; !ok || resp.Status != server.StatusShed {
		t.Fatalf("expected q3 shed first, got %+v", shedResp)
	}
	s.Engine().Start()
	resps := w.recv(2)
	if resps["q1"].Status != server.StatusOK {
		t.Fatalf("q1: %+v", resps["q1"])
	}
	q2 := resps["q2"]
	if q2.Status != server.StatusOK || q2.Decision != core.AdmitQueue.String() {
		t.Fatalf("q2 should have been served from the queue: %+v", q2)
	}
	if q2.QueueMS <= 0 {
		t.Fatalf("q2 queued with zero wait: %+v", q2)
	}
	st := s.Stats()
	if st.Completed != 2 || st.Shed != 1 {
		t.Fatalf("stats after saturation: %+v", st)
	}
	// Both admitted queries were the same family: the second submit must
	// have been served by the memoized compile artifact.
	if st.CompileHits < 1 || st.CompileMisses < 1 {
		t.Fatalf("repeated family should hit the compile cache: hits=%d misses=%d", st.CompileHits, st.CompileMisses)
	}
}

// Drain must shed the backlog immediately (decision "draining"), refuse new
// arrivals, finish the in-flight query, and then return.
func TestServerDrain(t *testing.T) {
	const workers = 2
	s, addr := startServer(t, server.Config{
		DB:     db(t),
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare, StartPaused: true},
		Policy: subplanPolicy(t, workers),
		Window: 1,
	})
	w := dialWire(t, addr)

	w.send(server.Request{ID: "inflight", Family: "Q1"})
	w.send(server.Request{ID: "queued", Family: "Q1"})
	time.Sleep(20 * time.Millisecond) // let both reach admission

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// The queued query is shed by the drain while the engine is still paused.
	resps := w.recv(1)
	if r := resps["queued"]; r.Status != server.StatusShed || r.Decision != server.DecisionDraining {
		t.Fatalf("queued query during drain: %+v", resps)
	}
	w.send(server.Request{ID: "late", Family: "Q1"})
	resps = w.recv(1)
	if r := resps["late"]; r.Status != server.StatusShed || r.Decision != server.DecisionDraining {
		t.Fatalf("late arrival during drain: %+v", r)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with a query still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	s.Engine().Start()
	resps = w.recv(1)
	if resps["inflight"].Status != server.StatusOK {
		t.Fatalf("in-flight query after drain: %+v", resps["inflight"])
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the in-flight query completed")
	}
}

// Queued dispatch is round-robin across tenants: with the window closed, two
// tenants' backlogs must interleave rather than draining one tenant first.
func TestServerTenantRoundRobin(t *testing.T) {
	const workers = 2
	s, addr := startServer(t, server.Config{
		DB:         db(t),
		Engine:     engine.Options{Workers: workers, FanOut: engine.FanOutShare, StartPaused: true},
		Policy:     subplanPolicy(t, workers),
		Window:     1,
		QueueLimit: 16,
	})
	w := dialWire(t, addr)

	w.send(server.Request{ID: "seed", Family: "Q6", Tenant: "a"})
	time.Sleep(20 * time.Millisecond) // occupy the window before the backlog arrives
	for i := 0; i < 2; i++ {
		w.send(server.Request{ID: fmt.Sprintf("a%d", i), Family: "Q6", Tenant: "a"})
	}
	for i := 0; i < 2; i++ {
		w.send(server.Request{ID: fmt.Sprintf("b%d", i), Family: "Q6", Tenant: "b"})
	}
	time.Sleep(20 * time.Millisecond)
	s.Engine().Start()
	// Window=1 serializes dispatch, and the server answers a query before
	// its slot admits the next one, so the order replies arrive on the one
	// connection is the dispatch order. (Queue waits are no proxy for it:
	// they count from each request's arrival.) a0 before b0 is allowed in
	// either order (rotation start is an implementation detail), but each
	// tenant's own FIFO order must hold.
	var order []string
	for _, resp := range w.recvInOrder(5) {
		if resp.Status != server.StatusOK {
			t.Fatalf("%s: %+v", resp.ID, resp)
		}
		order = append(order, resp.ID)
	}
	pos := make(map[string]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, tenant := range []string{"a", "b"} {
		if pos[tenant+"0"] > pos[tenant+"1"] {
			t.Fatalf("tenant %s FIFO violated: dispatch order %v", tenant, order)
		}
	}
}

// A variant outside [0, Variants) reduces modulo the family size on every
// topology: variant −1 of a three-variant family is variant 2, whether the
// server runs one shard or two.
func TestServerNegativeVariant(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, addr := startServer(t, server.Config{
				DB:     db(t),
				Shards: shards,
				Engine: engine.Options{Workers: 2},
			})
			w := dialWire(t, addr)
			w.send(server.Request{ID: "neg", Family: "Q1", Variant: -1})
			w.send(server.Request{ID: "two", Family: "Q1", Variant: 2})
			resps := w.recv(2)
			neg, two := resps["neg"], resps["two"]
			if neg.Status != server.StatusOK || two.Status != server.StatusOK {
				t.Fatalf("responses: %+v", resps)
			}
			if neg.Rows != two.Rows {
				t.Errorf("variant -1 returned %d rows, variant 2 %d", neg.Rows, two.Rows)
			}
		})
	}
}
