package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Config assembles a Server. DB and Engine.Workers are required; everything
// else has a serving-oriented default.
type Config struct {
	// DB is the generated TPC-H instance queries run against.
	DB *tpch.DB
	// Shards partitions the data across this many engine shards (0 or 1 =
	// a cluster of one, the classic topology). Every topology submits
	// through an engine.Cluster whose shards share one pool of
	// Shards×Engine.Workers workers. Sharded servers range-partition the
	// database once at startup and compile every family's scatter-gather
	// plan: scatterable queries fan out across the shards and merge at a
	// gather stage, small ones route whole round-robin, and the cross-shard
	// artifact bus deduplicates replicated build subtrees cluster-wide.
	Shards int
	// Engine configures each shard (Workers required: each shard's share of
	// the pool).
	Engine engine.Options
	// Policy is the sharing policy submissions run under (nil = never
	// share).
	Policy engine.SharePolicy
	// Env is the model environment admission prices against (zero value =
	// core.NewEnv(Workers)).
	Env core.Env
	// MaxDegree caps the parallelize arm in admission pricing (0 = Workers).
	MaxDegree int
	// Window bounds concurrently admitted queries (0 = 2×Workers). Sharing
	// admissions respect it too: the window is the hard ceiling the model's
	// verdicts operate under.
	Window int
	// QueueLimit bounds the total backlog across tenant FIFOs (0 =
	// 8×Window). Overflow sheds the lowest-benefit entry.
	QueueLimit int
	// Patience is the model-time response bound queued submitters tolerate
	// (0 = the model default, DefaultPatienceFactor × unloaded response).
	Patience float64
}

// Server is the cordobad front door: a TCP listener speaking the line-JSON
// protocol, admission control in front of one engine cluster (of one shard
// unless Config.Shards says more).
type Server struct {
	cfg       Config
	cluster   *engine.Cluster
	plans     map[string]engine.ShardPlan // "<family>/<variant>" → plan (see compilePlans)
	env       core.Env
	maxDegree int
	window    int
	quLimit   int

	mu          sync.Mutex
	tenants     map[string]*tenantQueue
	tenantOrder []string
	rr          int
	queued      int
	inflight    int
	draining    bool
	completed   int64
	shed        int64
	errored     int64
	admissions  map[string]int64

	lnMu      sync.Mutex
	listeners []net.Listener
	conns     map[*conn]struct{}
	closed    bool

	connWG sync.WaitGroup

	metricsOnce sync.Once
	metrics     *obs.Registry
}

// retentionGCPercent is the collector setting of a server that retains
// artifacts (Engine.Cache set). Retention is a resident-memory budget the
// operator chose; at Go's default of 100 the heap may reach twice its live
// size before a collection, so a process whose live heap is its tables plus
// what it retains (plus whatever an embedding program keeps per request)
// would pay for all of that twice over in resident memory.
const retentionGCPercent = 30

// New builds a server and starts its engine. Close (or Shutdown) releases
// it. With Engine.Cache set it also tightens the process's collector to
// retentionGCPercent, for as long as the process runs.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	if cfg.Engine.Cache != nil {
		debug.SetGCPercent(retentionGCPercent)
	}
	shards := max(cfg.Shards, 1)
	plans, err := compilePlans(cfg.DB, shards)
	if err != nil {
		return nil, err
	}
	cluster, err := engine.NewCluster(shards, cfg.Engine)
	if err != nil {
		return nil, err
	}
	// Capacity-dependent defaults scale with the topology: a k-shard cluster
	// has k×Workers emulated processors in one pool, so the model
	// environment and the admission window both widen with it.
	env := cfg.Env
	if env == (core.Env{}) {
		env = core.NewEnv(float64(cfg.Engine.Workers * shards))
	}
	maxDegree := cfg.MaxDegree
	if maxDegree <= 0 {
		maxDegree = cfg.Engine.Workers
	}
	window := cfg.Window
	if window <= 0 {
		window = 2 * cfg.Engine.Workers * shards
	}
	quLimit := cfg.QueueLimit
	if quLimit <= 0 {
		quLimit = 8 * window
	}
	return &Server{
		cfg:        cfg,
		cluster:    cluster,
		plans:      plans,
		env:        env,
		maxDegree:  maxDegree,
		window:     window,
		quLimit:    quLimit,
		tenants:    make(map[string]*tenantQueue),
		admissions: make(map[string]int64),
		conns:      make(map[*conn]struct{}),
	}, nil
}

// compilePlans builds the server's plan table, keyed "<family>/<variant>"
// for every family and variant in [0, Variants): on one shard each plan is
// the family's spec routed whole, on several the scatter-gather plan over a
// range-partitioned copy of db.
func compilePlans(db *tpch.DB, shards int) (map[string]engine.ShardPlan, error) {
	if shards > 1 {
		sdb, err := tpch.NewShardedDB(db, shards)
		if err != nil {
			return nil, err
		}
		return tpch.CompileShardPlans(sdb, 0)
	}
	plans := make(map[string]engine.ShardPlan)
	for _, f := range tpch.Families() {
		for v := 0; v < f.Variants; v++ {
			plans[fmt.Sprintf("%s/%d", f.Name, v)] = engine.ShardPlan{Template: f.Spec(db, 0, v)}
		}
	}
	return plans, nil
}

// Engine exposes shard 0 of the server's cluster: on an unsharded server,
// the one engine. Its Start starts the whole pool of a paused server.
func (s *Server) Engine() *engine.Engine { return s.cluster.Shard(0) }

// Cluster exposes the server's engine cluster: never nil, of one shard on an
// unsharded server.
func (s *Server) Cluster() *engine.Cluster { return s.cluster }

// Serve accepts connections on ln until the listener is closed (by Shutdown
// or externally). It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.lnMu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := &conn{nc: nc, w: bufio.NewWriter(nc)}
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			nc.Close()
			return net.ErrClosed
		}
		s.conns[c] = struct{}{}
		s.lnMu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// conn is one client connection: reads are single-threaded (the handler
// goroutine), writes are serialized by wmu because engine completion
// callbacks answer out of order.
type conn struct {
	nc  net.Conn
	wmu sync.Mutex
	w   *bufio.Writer
}

// write sends one response line. Errors are swallowed: a vanished client
// must not take the query (or the server) down with it.
func (c *conn) write(resp Response) {
	line, err := json.Marshal(resp)
	if err != nil {
		return
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.w.Write(line)
	c.w.WriteByte('\n')
	c.w.Flush()
}

func (s *Server) handleConn(c *conn) {
	defer s.connWG.Done()
	defer func() {
		s.lnMu.Lock()
		delete(s.conns, c)
		s.lnMu.Unlock()
		c.nc.Close()
	}()
	sc := bufio.NewScanner(c.nc)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var req Request
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			s.countError()
			c.write(Response{ID: req.ID, Status: StatusError, Error: "bad request: " + err.Error()})
			continue
		}
		switch strings.ToLower(req.Op) {
		case "", "query":
			s.handleQuery(c, req)
		case "stats":
			st := s.Stats()
			c.write(Response{ID: req.ID, Status: StatusOK, Stats: &st})
		case "trace":
			c.write(Response{ID: req.ID, Status: StatusOK, Traces: s.Traces(req.Limit)})
		case "ping":
			c.write(Response{ID: req.ID, Status: StatusOK})
		default:
			s.countError()
			c.write(Response{ID: req.ID, Status: StatusError, Error: "unknown op: " + req.Op})
		}
	}
}

func (s *Server) countError() {
	s.mu.Lock()
	s.errored++
	s.mu.Unlock()
}

// candidates compiles the admission inputs of a spec: the pivot-candidate
// models ChoosePivoted takes (highest level first), falling back to the
// declared model.
func candidates(spec engine.QuerySpec) []core.Query {
	if len(spec.Pivots) == 0 {
		return []core.Query{spec.Model}
	}
	cands := make([]core.Query, len(spec.Pivots))
	for i, opt := range spec.Pivots {
		cands[i] = opt.Model
	}
	return cands
}

// groupProspect reports the sharing opportunity the admission model prices:
// the prospective group size (live members + the newcomer) and the
// remaining-coverage argument (1 for a joinable group, negative when no
// compatible group exists). It looks groups up by signature and by the
// fan-out share key at the spec's declared pivot (the join for Q4 and Q13),
// which the engine reads from its compile memo, so a warm call renders
// nothing. A group registered only under a build-state key (the "!build"
// or "!keys" namespace of a build-side pivot candidate) is not among them.
// A plan with shard forms spans the cluster: each shard is consulted for its
// shard-qualified signature and for shard 0's fan-out key, which
// canonicalizes identically on every shard when the subtree below the pivot
// is replicated. A route-whole plan is looked up on shard 0.
func (s *Server) groupProspect(p *pending) (m int, remaining float64) {
	forms := p.plan.Shards
	if len(forms) == 0 {
		forms = []engine.QuerySpec{p.plan.Template}
	}
	bk := s.cluster.Shard(0).ShareKeyOf(forms[0])
	var g int
	for i, sh := range forms {
		e := s.cluster.Shard(i)
		g = max(g, e.GroupSize(sh.Signature), e.GroupSize(bk))
	}
	if g >= 1 {
		return g + 1, 1
	}
	return 0, -1
}

// pendingFor resolves a query request into the submission admission
// prices: the family's plan for the variant reduced into [0, Variants), and
// the candidate models. The candidates come from the plan's template — its
// single-engine form — so sharded and unsharded servers price arrivals
// identically.
func (s *Server) pendingFor(req Request) (*pending, error) {
	fam, ok := tpch.FamilyByName(req.Family)
	if !ok {
		return nil, fmt.Errorf("unknown family %q (have %s)", req.Family, strings.Join(tpch.FamilyNames(), ", "))
	}
	n := fam.Variants
	plan := s.plans[fmt.Sprintf("%s/%d", fam.Name, (req.Variant%n+n)%n)]
	return &pending{req: req, plan: plan, cands: candidates(plan.Template)}, nil
}

// handleQuery runs one submission through admission control and either
// submits it, queues it, or sheds it. The response is written when the
// engine completes the query (ok), or immediately on a shed/error.
func (s *Server) handleQuery(c *conn, req Request) {
	arrived := time.Now()
	p, err := s.pendingFor(req)
	if err != nil {
		s.countError()
		c.write(Response{ID: req.ID, Status: StatusError, Error: err.Error()})
		return
	}
	p.conn, p.arrived = c, arrived

	s.mu.Lock()
	if s.draining {
		s.shed++
		s.mu.Unlock()
		c.write(Response{ID: req.ID, Status: StatusShed, Decision: DecisionDraining})
		return
	}
	m, remaining := s.groupProspect(p)
	load := core.AdmitLoad{Active: s.inflight, Queued: s.queued, Patience: s.cfg.Patience}
	adm := core.Admit(p.cands, m, s.maxDegree, remaining, load, s.env)
	p.benefit = adm.Rate

	switch adm.Decision {
	case core.AdmitShared, core.AdmitAlone:
		if s.inflight < s.window {
			s.submitLocked(p, adm.Decision.String(), 0)
			s.mu.Unlock()
			return
		}
		// The model admits but the window is full — the difference between
		// model saturation and the configured concurrency cap. Queue instead;
		// the window opening re-dispatches it first-come within its tenant.
		fallthrough
	case core.AdmitQueue:
		if s.queued >= s.quLimit {
			victim := s.shedLowestBenefitLocked(p)
			if victim == p {
				s.shed++
				s.mu.Unlock()
				c.write(Response{ID: req.ID, Status: StatusShed, Decision: core.AdmitShed.String()})
				return
			}
			s.shed++
			s.tenantOf(p.req.Tenant).push(p)
			s.queued++
			s.mu.Unlock()
			victim.conn.write(Response{ID: victim.req.ID, Status: StatusShed, Decision: core.AdmitShed.String()})
			return
		}
		s.tenantOf(p.req.Tenant).push(p)
		s.queued++
		s.mu.Unlock()
	default: // AdmitShed
		s.shed++
		s.mu.Unlock()
		c.write(Response{ID: req.ID, Status: StatusShed, Decision: core.AdmitShed.String()})
	}
}

// submitLocked hands an admitted query to the engine. Called with s.mu held
// (lock order is always s.mu → engine.mu; completion callbacks run with no
// engine locks held, so their re-entry into s.mu cannot deadlock).
func (s *Server) submitLocked(p *pending, decision string, waited time.Duration) {
	s.inflight++
	s.admissions[decision]++
	req, c := p.req, p.conn
	arrived := p.arrived
	done := func(res *storage.Batch, qerr error) {
		// Answer before freeing the window slot: the dispatch the freed slot
		// allows then follows this reply, so a connection's replies arrive
		// in dispatch order whenever the window is full.
		defer s.onComplete()
		if qerr != nil {
			s.countError()
			c.write(Response{ID: req.ID, Status: StatusError, Decision: decision, Error: qerr.Error()})
			return
		}
		s.mu.Lock()
		s.completed++
		s.mu.Unlock()
		c.write(Response{
			ID:        req.ID,
			Status:    StatusOK,
			Decision:  decision,
			Rows:      res.Len(),
			QueueMS:   float64(waited) / float64(time.Millisecond),
			LatencyMS: float64(time.Since(arrived)) / float64(time.Millisecond),
		})
	}
	h, err := s.cluster.SubmitFn(p.plan, s.cfg.Policy, done)
	if err == nil {
		// The admission verdict joins the lifecycle trace here — the trace is
		// born inside SubmitFn, so the admit span lands just after the
		// submit-side events rather than before them. Predicted carries the
		// admission model's benefit rate.
		h.Trace().EventPredicted("admit",
			fmt.Sprintf("%s waited=%s", decision, waited.Round(time.Microsecond)), p.benefit)
	}
	if err != nil {
		s.inflight--
		s.errored++
		// Answer off-lock: a stalled client write must not block admission.
		go c.write(Response{ID: req.ID, Status: StatusError, Decision: decision, Error: err.Error()})
	}
}

// onComplete retires one in-flight slot and pumps the queues into the freed
// window space. Runs on an engine worker with no engine locks held.
func (s *Server) onComplete() {
	s.mu.Lock()
	s.inflight--
	s.pumpLocked()
	s.mu.Unlock()
}

// pumpLocked dispatches queued queries while the window has room: round-robin
// across tenants, FIFO within each. Dispatched entries report decision
// "queue" — they were admitted by waiting, whatever regime the engine picks
// now.
func (s *Server) pumpLocked() {
	for !s.draining && s.queued > 0 && s.inflight < s.window {
		p := s.nextQueuedLocked()
		if p == nil {
			return
		}
		s.submitLocked(p, core.AdmitQueue.String(), time.Since(p.arrived))
	}
}

// Drain gracefully quiesces: stop admitting (new queries shed with decision
// "draining"), shed the backlog, and wait for every in-flight query to
// complete and answer. The engine survives Drain; Close releases it.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	var backlog []*pending
	for {
		p := s.nextQueuedLocked()
		if p == nil {
			break
		}
		backlog = append(backlog, p)
	}
	s.shed += int64(len(backlog))
	s.mu.Unlock()
	for _, p := range backlog {
		p.conn.write(Response{ID: p.req.ID, Status: StatusShed, Decision: DecisionDraining})
	}
	s.cluster.Drain()
}

// Shutdown is the SIGTERM path: close listeners (stop accepting), drain,
// then close connections and the engine. Safe to call more than once.
func (s *Server) Shutdown() {
	s.lnMu.Lock()
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	s.lnMu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.Drain()
	s.lnMu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.lnMu.Unlock()
	s.connWG.Wait()
	s.cluster.Close()
}

// Stats snapshots the server's own counters, the process-wide page pool,
// and the cluster's counters, which it reads from one
// engine.Cluster.Counters snapshot: the engine counters aggregate every
// shard, and a sharded server adds the routing counters and one row per
// shard.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	adm := make(map[string]int64, len(s.admissions))
	for k, v := range s.admissions {
		adm[k] = v
	}
	st := Stats{
		Completed:  s.completed,
		Shed:       s.shed,
		Errors:     s.errored,
		Queued:     s.queued,
		Admissions: adm,
	}
	s.mu.Unlock()
	st.PoolGets, st.PoolHits, st.PoolPuts = storage.PagePoolStats()
	n := s.cluster.Counters()
	st.Active, st.InflightAttaches = n.Active, n.InflightAttaches
	st.HashBuilds, st.BuildJoins, st.BusJoins = n.HashBuilds, n.BuildJoins, n.BusJoins
	st.CompileHits, st.CompileMisses = n.CompileHits, n.CompileMisses
	st.Steals, st.Parks = n.Steals, n.Parks
	st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CacheBytes = n.Cache.Hits, n.Cache.Misses, n.Cache.Evictions, n.Cache.Bytes
	if len(n.PivotJoins) > 0 {
		st.PivotJoins = n.PivotJoins
	}
	st.Scatters, st.Routed = n.Scatters, n.Routed
	if len(n.Shards) > 1 {
		// Sharded: one row per shard, so a stats probe sees where the work
		// actually landed.
		st.Shards = make([]ShardStats, len(n.Shards))
		for i, r := range n.Shards {
			st.Shards[i] = ShardStats{
				Shard:         i,
				Active:        r.Active,
				Completed:     r.Completed,
				HashBuilds:    r.HashBuilds,
				BuildJoins:    r.BuildJoins,
				BusJoins:      r.BusJoins,
				CompileHits:   r.CompileHits,
				CompileMisses: r.CompileMisses,
			}
		}
	}
	return st
}

// Traces snapshots up to limit recent query lifecycle traces per shard
// (oldest first; limit <= 0 applies a default of 32). Every shard's ring is
// dumped in shard order — a scattered query shows up once as the
// coordinator's scatter/gather trace (on shard 0's ring) and once per shard
// for its partial forms.
func (s *Server) Traces(limit int) []obs.TraceRecord {
	if limit <= 0 {
		limit = 32
	}
	var out []obs.TraceRecord
	for i := 0; i < s.cluster.NumShards(); i++ {
		out = append(out, s.cluster.Shard(i).Tracer().Recent(limit)...)
	}
	return out
}
