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
	// Shards partitions execution across this many engine shards (0 or 1 =
	// one engine, the classic topology). Sharded servers range-partition the
	// database once at startup, compile every family's scatter-gather plan,
	// and route submissions through an engine.Cluster: scatterable queries
	// fan out across the shards and merge at a gather stage, small ones
	// route whole round-robin, and the cross-shard artifact bus deduplicates
	// replicated build subtrees cluster-wide.
	Shards int
	// Engine configures the embedded engine (Workers required).
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
// protocol, admission control in front of one shared engine.
type Server struct {
	cfg       Config
	eng       *engine.Engine
	cluster   *engine.Cluster             // non-nil when Config.Shards > 1
	plans     map[string]engine.ShardPlan // "<family>/<variant>" → scatter-gather plan
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
	var (
		eng     *engine.Engine
		cluster *engine.Cluster
		plans   map[string]engine.ShardPlan
	)
	if cfg.Shards > 1 {
		sdb, err := tpch.NewShardedDB(cfg.DB, cfg.Shards)
		if err != nil {
			return nil, err
		}
		plans, err = tpch.CompileShardPlans(sdb, 0)
		if err != nil {
			return nil, err
		}
		cluster, err = engine.NewCluster(cfg.Shards, cfg.Engine)
		if err != nil {
			return nil, err
		}
		eng = cluster.Shard(0)
	} else {
		var err error
		eng, err = engine.New(cfg.Engine)
		if err != nil {
			return nil, err
		}
	}
	// Capacity-dependent defaults scale with the topology: a k-shard cluster
	// has k×Workers emulated processors, so the model environment and the
	// admission window both widen with it.
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
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
		eng:        eng,
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

// Engine exposes the embedded engine (benchmarks warm its cache directly).
// On a sharded server it is shard 0.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Cluster exposes the engine cluster of a sharded server (nil when
// Config.Shards <= 1).
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
// compatible group exists). On a sharded server the prospect spans the
// cluster: each shard is consulted for its shard-qualified scattered form
// and for the build-subtree share key, which canonicalizes identically on
// every shard when the build side is replicated — exactly the groups the
// cross-shard bus merges.
func (s *Server) groupProspect(p *pending) (m int, remaining float64) {
	var g int
	if s.cluster != nil && len(p.plan.Shards) > 0 {
		bk := engine.ShareKey(p.plan.Shards[0])
		for i, sh := range p.plan.Shards {
			e := s.cluster.Shard(i)
			if k := e.GroupSize(sh.Signature); k > g {
				g = k
			}
			if k := e.GroupSize(bk); k > g {
				g = k
			}
		}
	} else {
		g = s.eng.GroupSize(p.spec.Signature)
		if k := s.eng.GroupSize(engine.ShareKey(p.spec)); k > g {
			g = k
		}
	}
	if g >= 1 {
		return g + 1, 1
	}
	return 0, -1
}

// handleQuery runs one submission through admission control and either
// submits it, queues it, or sheds it. The response is written when the
// engine completes the query (ok), or immediately on a shed/error.
func (s *Server) handleQuery(c *conn, req Request) {
	fam, ok := tpch.FamilyByName(req.Family)
	if !ok {
		s.countError()
		c.write(Response{ID: req.ID, Status: StatusError,
			Error: fmt.Sprintf("unknown family %q (have %s)", req.Family, strings.Join(tpch.FamilyNames(), ", "))})
		return
	}
	p := &pending{req: req, conn: c, arrived: time.Now()}
	if s.plans != nil {
		// Sharded: route through the precompiled scatter-gather plan. The
		// admission candidates come from the template — the plan's single-
		// engine form — so sharded and unsharded servers price arrivals
		// identically.
		sf, ok := tpch.ShardFamilyByName(req.Family)
		if !ok {
			s.countError()
			c.write(Response{ID: req.ID, Status: StatusError,
				Error: fmt.Sprintf("family %q has no shard plan", req.Family)})
			return
		}
		v := req.Variant % sf.Variants
		if v < 0 {
			v += sf.Variants
		}
		p.plan = s.plans[fmt.Sprintf("%s/%d", sf.Name, v)]
		p.sharded = true
		p.spec = p.plan.Template
	} else {
		p.spec = fam.Spec(s.cfg.DB, 0, req.Variant)
	}
	p.cands = candidates(p.spec)

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
		s.onComplete()
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
	var (
		h   *engine.Handle
		err error
	)
	if p.sharded {
		h, err = s.cluster.SubmitFn(p.plan, s.cfg.Policy, done)
	} else {
		h, err = s.eng.SubmitFn(p.spec, s.cfg.Policy, done)
	}
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
	if s.cluster != nil {
		s.cluster.Drain()
	} else {
		s.eng.Drain()
	}
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
	if s.cluster != nil {
		s.cluster.Close()
	} else {
		s.eng.Close()
	}
}

// Stats snapshots the server and engine counters.
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
	if s.cluster != nil {
		// Sharded: the engine counters aggregate the cluster, and Shards
		// carries one row per engine so a stats probe sees where the work
		// actually landed.
		st.Scatters = s.cluster.Scatters()
		st.Routed = s.cluster.Routed()
		st.HashBuilds = s.cluster.HashBuilds()
		st.BuildJoins = s.cluster.BuildJoins()
		st.BusJoins = s.cluster.BusJoins()
		st.CompileHits, st.CompileMisses = s.cluster.CompileHits(), s.cluster.CompileMisses()
		pj := make(map[int]int64)
		for i := 0; i < s.cluster.NumShards(); i++ {
			e := s.cluster.Shard(i)
			st.Active += e.Active()
			st.InflightAttaches += e.InflightAttaches()
			st.Steals += e.Steals()
			st.Parks += e.Parks()
			for lvl, n := range e.PivotLevelJoins() {
				pj[lvl] += n
			}
			st.Shards = append(st.Shards, ShardStats{
				Shard:         i,
				Active:        e.Active(),
				Completed:     e.Completed(),
				HashBuilds:    e.HashBuilds(),
				BuildJoins:    e.BuildJoins(),
				BusJoins:      e.BusJoins(),
				CompileHits:   e.CompileHits(),
				CompileMisses: e.CompileMisses(),
			})
		}
		if len(pj) > 0 {
			st.PivotJoins = pj
		}
		cs := s.cluster.CacheStats()
		st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CacheBytes = cs.Hits, cs.Misses, cs.Evictions, cs.Bytes
		return st
	}
	st.Active = s.eng.Active()
	st.HashBuilds = s.eng.HashBuilds()
	st.BuildJoins = s.eng.BuildJoins()
	st.InflightAttaches = s.eng.InflightAttaches()
	if pj := s.eng.PivotLevelJoins(); len(pj) > 0 {
		st.PivotJoins = pj
	}
	cs := s.eng.CacheStats()
	st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CacheBytes = cs.Hits, cs.Misses, cs.Evictions, cs.Bytes
	st.CompileHits, st.CompileMisses = s.eng.CompileHits(), s.eng.CompileMisses()
	st.Steals, st.Parks = s.eng.Steals(), s.eng.Parks()
	return st
}

// Traces snapshots up to limit recent query lifecycle traces per engine
// (oldest first; limit <= 0 applies a default of 32). On a sharded server
// every shard's ring is dumped in shard order — a scattered query shows up
// once as the coordinator's scatter/gather trace (on shard 0's ring) and
// once per shard for its partial forms.
func (s *Server) Traces(limit int) []obs.TraceRecord {
	if limit <= 0 {
		limit = 32
	}
	if s.cluster == nil {
		return s.eng.Tracer().Recent(limit)
	}
	var out []obs.TraceRecord
	for i := 0; i < s.cluster.NumShards(); i++ {
		out = append(out, s.cluster.Shard(i).Tracer().Recent(limit)...)
	}
	return out
}
