package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload string
	Seed     uint64
	// Attempted counts requests sent in the measured window; Failed those
	// that were shed, errored, lost their connection or returned a wrong row
	// count; Mismatches the last kind alone (any makes the run incorrect).
	Attempted, Failed, Mismatches int
	// Samples is the number of ok replies the latency percentiles rest on.
	Samples int
	Notes   []string
	Metrics map[string]metric
}

// Sample statuses beyond the server's own: the connection died.
const statusLost = "lost"

// sample is one request of the measured window, with times as offsets from
// the window's origin.
type sample struct {
	idx       int           // index into the request sequence
	due       time.Duration // open loop: scheduled send; closed loop: same as sent
	sent      time.Duration
	done      time.Duration
	status    string
	decision  string
	queueMS   float64
	latencyMS float64
	rowsOK    bool
}

// bed is one booted server with its data, oracle and client connections.
type bed struct {
	w     workloadDef
	db    *tpch.DB
	refs  map[pair]*storage.Batch
	srv   *server.Server
	conns []*workload.Client
}

// engineOptions returns the engine options, sharing policy and (possibly nil)
// cache the workload's server and its direct-engine replay both run with.
func engineOptions(w workloadDef) (engine.Options, engine.SharePolicy, error) {
	pol, inflight, err := policy.ByName(w.policy, core.NewEnv(float64(w.workers)), w.workers)
	if err != nil {
		return engine.Options{}, nil, err
	}
	opts := engine.Options{Workers: w.workers, FanOut: engine.FanOutShare, InflightSharing: inflight}
	if w.cacheBytes > 0 {
		opts.Cache = artifact.New(artifact.Config{BudgetBytes: w.cacheBytes, TTL: cacheTTL})
	}
	return opts, policy.ForEngine(pol), nil
}

// references computes the oracle: every (family, variant) of the mix run
// single-threaded with no sharing machinery.
func references(db *tpch.DB) (map[pair]*storage.Batch, error) {
	refs := make(map[pair]*storage.Batch)
	for _, f := range tpch.Families() {
		for v := 0; v < f.Variants; v++ {
			b, err := f.Reference(db, v)
			if err != nil {
				return nil, fmt.Errorf("reference %s/%d: %w", f.Name, v, err)
			}
			refs[pair{f.Name, v}] = b
		}
	}
	return refs, nil
}

// setUp generates the data, computes the oracle, boots the workload's server
// on a loopback port, connects and runs the warm-up prefix of seq. It returns
// the bed and how long all of that took.
func setUp(w workloadDef, seq []request) (*bed, time.Duration, error) {
	start := time.Now()
	db, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: dataSeed})
	if err != nil {
		return nil, 0, err
	}
	refs, err := references(db)
	if err != nil {
		return nil, 0, err
	}
	opts, pol, err := engineOptions(w)
	if err != nil {
		return nil, 0, err
	}
	cfg := server.Config{DB: db, Engine: opts, Policy: pol}
	if w.shards > 1 {
		cfg.Shards = w.shards
	}
	if w.open {
		// An open loop's bursts must queue, not shed: the benchmark's
		// workloads are ones on which no request fails, so that a change
		// which starts failing requests stands out.
		cfg.Patience = 1e12
		cfg.QueueLimit = 1 << 16
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	b := &bed{w: w, db: db, refs: refs, srv: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, 0, err
	}
	go srv.Serve(ln) // returns when Shutdown closes ln
	for i := 0; i < numConns; i++ {
		c, err := workload.DialServer(ln.Addr().String())
		if err != nil {
			b.close()
			return nil, 0, err
		}
		b.conns = append(b.conns, c)
	}
	for _, s := range b.driveClosed(seq, 0, warmupCount, 0) {
		if s.status != server.StatusOK || !s.rowsOK {
			b.close()
			return nil, 0, fmt.Errorf("warm-up request %d (%s/%d): status %q rows ok %v",
				s.idx, seq[s.idx].family, seq[s.idx].variant, s.status, s.rowsOK)
		}
	}
	return b, time.Since(start), nil
}

// close disconnects the clients and shuts the server down, waiting for its
// goroutines to end.
func (b *bed) close() {
	for _, c := range b.conns {
		c.Close()
	}
	b.srv.Shutdown()
}

// do sends one request on conn and waits for its reply, filling s.
func (b *bed) do(conn *workload.Client, r request, origin time.Time, s *sample) {
	s.sent = time.Since(origin)
	ch, err := conn.Submit(server.Request{Family: r.family, Variant: r.variant, Tenant: r.tenant})
	if err != nil {
		s.done, s.status = time.Since(origin), statusLost
		return
	}
	b.await(ch, r, origin, s)
}

func (b *bed) await(ch <-chan server.Response, r request, origin time.Time, s *sample) {
	resp, ok := <-ch
	s.done = time.Since(origin)
	if !ok {
		s.status = statusLost
		return
	}
	s.status, s.decision = resp.Status, resp.Decision
	s.queueMS, s.latencyMS = resp.QueueMS, resp.LatencyMS
	s.rowsOK = resp.Status != server.StatusOK || resp.Rows == b.refs[pair{r.family, r.variant}].Len()
}

// driveClosed runs numClients logical clients over the connections. The
// clients take requests from one shared cursor starting at seq[from], so
// requests are sent in generated order; each sends its next only after the
// previous one's reply. They stop once limit requests have been taken
// (limit > 0) or the window has passed (window > 0). A shed reply makes the
// client back off, so that a change which starts shedding shows as failures
// and lower throughput rather than as a resubmit spin.
func (b *bed) driveClosed(seq []request, from, limit int, window time.Duration) []sample {
	origin := time.Now()
	var cursor atomic.Int64
	perClient := make([][]sample, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := b.conns[c%len(b.conns)]
			for {
				n := int(cursor.Add(1)) - 1
				if limit > 0 && n >= limit || window > 0 && time.Since(origin) >= window {
					return
				}
				idx := (from + n) % len(seq)
				s := sample{idx: idx}
				b.do(conn, seq[idx], origin, &s)
				s.due = s.sent
				perClient[c] = append(perClient[c], s)
				if s.status == server.StatusShed {
					time.Sleep(shedBackoff)
				}
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, p := range perClient {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sent < out[j].sent })
	return out
}

// driveOpen sends seq[from:] on its due times whatever the state of earlier
// requests, alternating connections, and returns once every reply is in.
// Built on Client.Submit rather than workload.RunOpenLoop because latency
// must count from the due time, not the send, and generator lateness must be
// visible.
func (b *bed) driveOpen(seq []request, from int) []sample {
	origin := time.Now()
	out := make([]sample, len(seq)-from)
	var wg sync.WaitGroup
	for i := range out {
		r := seq[from+i]
		s := &out[i]
		s.idx, s.due = from+i, r.due
		if d := r.due - time.Since(origin); d > 0 {
			time.Sleep(d)
		}
		s.sent = time.Since(origin)
		ch, err := b.conns[i%len(b.conns)].Submit(server.Request{Family: r.family, Variant: r.variant, Tenant: r.tenant})
		if err != nil {
			s.done, s.status = time.Since(origin), statusLost
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.await(ch, r, origin, s)
		}()
	}
	wg.Wait()
	return out
}

// churn bumps lineitem's epoch every churnEvery until stop is closed: the
// write beside the reads, which invalidates compiled plans and cached
// artifacts over that table.
func (b *bed) churn(stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	t := time.NewTicker(churnEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			b.db.Lineitem.BumpEpoch()
		}
	}
}

// counters is a snapshot of everything a window's deltas are taken from.
type counters struct {
	at     time.Time
	cpu    time.Duration // process user+sys
	gcCPU  float64       // seconds
	allocs uint64        // heap objects allocated
	st     server.Stats
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument fails it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bed) snapshot() counters {
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(ms)
	return counters{
		at:     time.Now(),
		cpu:    processCPU(),
		gcCPU:  ms[0].Value.Float64(),
		allocs: ms[1].Value.Uint64(),
		st:     b.srv.Stats(),
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// window is the measured part of a run: its samples and the counters on
// either side of it.
type window struct {
	length        time.Duration // the nominal window the samples were driven over
	samples       []sample
	before, after counters
}

// measure runs the workload's measured window on a warmed bed.
func (b *bed) measure(seq []request, seconds time.Duration) window {
	win := window{length: seconds}
	stop := make(chan struct{})
	var churning sync.WaitGroup
	win.before = b.snapshot()
	if b.w.churn {
		churning.Add(1)
		go b.churn(stop, &churning)
	}
	if b.w.open {
		win.samples = b.driveOpen(seq, warmupCount)
	} else {
		win.samples = b.driveClosed(seq, warmupCount, 0, seconds)
	}
	win.after = b.snapshot()
	close(stop)
	churning.Wait()
	return win
}

// endToEnd fills the result's counts and end-to-end metrics from a window.
//
// latency_p50_ms is the median over the window's whole seconds of each
// second's median latency, not the median of all replies: the host is shared,
// and a neighbour that takes a core for a few seconds of a run moves the
// median of all replies by as much as a real regression would (an open loop's
// median most, since every stall leaves it a backlog), while it leaves the
// median second alone. A change to the program moves every second and shows
// all the same. The other metrics are taken over the whole window: a second
// holds too few replies for a p99.
func endToEnd(res *runResult, win window) {
	var lat []float64
	width := min(time.Second, win.length)
	perSecond := make([][]float64, int(win.length/width))
	for _, s := range win.samples {
		res.Attempted++
		switch {
		case s.status != server.StatusOK:
			res.Failed++
		case !s.rowsOK:
			res.Failed++
			res.Mismatches++
		default:
			ms := float64(s.done-s.due) / float64(time.Millisecond)
			lat = append(lat, ms)
			// Replies that arrive after the last whole second (requests in
			// flight when the window closed) count everywhere but here.
			if k := int(s.done / width); k < len(perSecond) {
				perSecond[k] = append(perSecond[k], ms)
			}
		}
	}
	sort.Float64s(lat)
	res.Samples = len(lat)
	var medians []float64
	for _, sec := range perSecond {
		if len(sec) > 0 {
			medians = append(medians, median(sec))
		}
	}
	wall := win.after.at.Sub(win.before.at).Seconds()
	cpu := (win.after.cpu - win.before.cpu).Seconds()
	p99, used := tailPercentile(lat, 0.99)
	if used != 0.99 {
		res.Notes = append(res.Notes, fmt.Sprintf("latency_p99_ms reports p%.4g: too few samples for ten beyond p99", used*100))
	}
	ok := math.Max(float64(len(lat)), 1)
	res.Metrics["throughput_qps"] = metric{float64(len(lat)) / wall, "1/s"}
	res.Metrics["latency_p50_ms"] = metric{median(medians), "ms"}
	res.Metrics["latency_p99_ms"] = metric{p99, "ms"}
	res.Metrics["cpu_ms_per_query"] = metric{cpu * 1000 / ok, "ms"}
}

// setupRepeats is how many times an untraced run sets up, so that setup_s is
// a median; the last bed is the one measured.
const setupRepeats = 3

// runWorkload performs one run: set-up (repeated when untraced), the
// measured window, and either the end-to-end or the per-layer metrics.
func runWorkload(w workloadDef, seed uint64, seconds time.Duration, traced bool, traceOut string) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Metrics: make(map[string]metric)}
	seq := sequenceFor(w, seed, seconds)
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var (
		b      *bed
		setups []float64
	)
	for i := 1; ; i++ {
		var (
			took time.Duration
			err  error
		)
		if b, took, err = setUp(w, seq); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
		if i == repeats {
			break
		}
		b.close()
		// The next set-up starts from a collected heap, so that this one's
		// garbage is not charged to it.
		runtime.GC()
	}
	defer b.close()
	win := b.measure(seq, seconds)
	endToEnd(res, win)
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["rss_peak_mb"] = metric{rss, "MB"}
		return res, nil
	}
	// A traced run reports the per-layer metrics only, plus its own window's
	// throughput, which against an untraced run's gives the tracing overhead.
	res.Metrics = map[string]metric{"trace.throughput_qps": res.Metrics["throughput_qps"]}
	if err := perLayer(res, b, win, seq, traceOut); err != nil {
		return nil, err
	}
	return res, nil
}
