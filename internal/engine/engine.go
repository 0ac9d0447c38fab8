package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relop"
	"repro/internal/storage"
)

// FanOutMode selects how a shared pivot fans one output page out to its m
// consumers.
type FanOutMode int

const (
	// FanOutShare (the default) hands every consumer the same refcounted
	// read-only page (storage.Batch.MarkShared); a consumer deep-copies only
	// on its write path (storage.Batch.Writable). The pivot still pays the
	// per-consumer delivery s — the sequential hand-off the model charges —
	// but no longer a full page copy per sharer.
	FanOutShare FanOutMode = iota
	// FanOutClone eagerly deep-copies the page for every consumer except the
	// last, which receives the original (a move, not a copy). This is the
	// physical realization of the model's per-consumer cost s as the paper's
	// testbed paid it; profiling calibration and the fan-out ablation use it.
	FanOutClone
)

// String returns the mode label.
func (m FanOutMode) String() string {
	switch m {
	case FanOutShare:
		return "share"
	case FanOutClone:
		return "clone"
	default:
		return fmt.Sprintf("FanOutMode(%d)", int(m))
	}
}

// Options configures an Engine.
type Options struct {
	// Workers is the emulated processor count n (required, ≥ 1). A Cluster
	// of k shards runs them all on one pool of k×Workers workers, so here it
	// is each shard's share of that pool; a shard's Workers(), its parallel
	// degree cap and its model environment stay at this share.
	Workers int
	// QueueCap is the page capacity of inter-operator queues (default 8).
	// Finite capacity makes slow consumers throttle producers.
	QueueCap int
	// FanOut selects the pivot fan-out discipline (default FanOutShare:
	// refcounted read-only pages, clone only on the write path).
	FanOut FanOutMode
	// Profile enables per-node busy-time accounting for parameter
	// estimation (Section 3.1). Profiling implies NoFusion: busy time is
	// attributed per plan node, which a fused segment cannot separate.
	Profile bool
	// NoFusion disables operator-chain fusion, running every plan node as
	// its own staged task with an intermediate PageQueue per hop — the
	// pre-fusion execution model, kept for the fused-vs-staged ablation.
	// By default linear unary-operator runs between task boundaries (pivot
	// fan-outs, joins, collectors, the sink) execute as single fused tasks.
	NoFusion bool
	// StartPaused creates the engine with its processors halted; queries
	// may be submitted (and will merge into sharing groups, since no pivot
	// can emit) but nothing executes until Start. This is the batch-arrival
	// regime of multi-query optimization, and what the offline profiling
	// procedure uses to pin sharing degrees exactly.
	StartPaused bool
	// InflightSharing lets queries whose pivot is a declared table scan
	// (NodeSpec.Scan) join a sharing group after its scan has started: the
	// joiner attaches to the circular scan at its current cursor, consumes
	// to the end of the table, and covers the missed prefix when the cursor
	// wraps around. Requires a policy implementing AttachPolicy to admit
	// joiners. Off by default, which preserves the paper's submission-time
	// grouping semantics exactly.
	InflightSharing bool
	// Cache, when set, retains retired shared artifacts — sealed hash-join
	// build states and completed root-pivot result runs — for the cache's
	// keep-alive window instead of dropping them with their last consumer.
	// Lookups consult it before anchoring fresh groups, so bursty arrivals
	// separated by an idle gap attach to retained work (zero rebuild)
	// rather than re-executing it. Nil (the default) preserves
	// retire-at-last-release semantics exactly. Entries are invalidated by
	// source-table epoch, so mutation-path publishes are never served stale.
	Cache *artifact.Cache
	// SweepInterval, when positive, runs SweepExchange on a background
	// ticker with SweepAge as the reclaim age — the wedged-consumer reclaim
	// path under live traffic, without the driver having to call it.
	SweepInterval time.Duration
	// SweepAge is the age beyond which the periodic sweep force-retires
	// orphaned or wedged exchange entries (default: SweepInterval).
	SweepAge time.Duration
	// Bus, when set, replaces the engine's private work exchange with a
	// shared one — the cross-shard artifact bus. Engines sharing a bus (the
	// shards of a Cluster) publish and discover build states through it, so a
	// hash table built on any shard serves probers on every shard: the submit
	// path, finding no local group and no cached table, consults the bus for
	// a live build state under the same canonical key and attaches to it as a
	// foreign share — build once per cluster, not once per shard. Sharing a
	// bus only composes with shard-agnostic fingerprints: subplans over
	// replicated tables (the same *storage.Table instance on every shard)
	// canonicalize identically everywhere, while range-partitioned shard
	// tables carry shard-qualified names so shard-local artifacts never
	// collide. Nil (the default) keeps a private exchange.
	Bus *storage.Exchange
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.QueueCap == 0 {
		o.QueueCap = 8
	}
	if o.SweepAge == 0 {
		o.SweepAge = o.SweepInterval
	}
	return o
}

// SharePolicy decides, at submission time, whether a query should join a
// sharing group. Implementations: always-share, never-share (a nil policy),
// and the model-guided policy of Section 8.
type SharePolicy interface {
	// ShouldJoin reports whether a query with the given model should join a
	// group that would then contain m members.
	ShouldJoin(q core.Query, m int) bool
}

// ParallelPolicy extends SharePolicy with the share-vs-parallelize
// decision: when a query will not join a sharing group, the engine asks the
// policy for a clone degree and, if it exceeds 1 (and the plan supports
// partitioned execution), runs the query unshared as that many partitioned
// clones fanning into a synthesized merge node.
type ParallelPolicy interface {
	SharePolicy
	// Degree returns the partitioned clone degree (1 = serial) for a query
	// executing unshared while load queries (including it) are active.
	Degree(q core.Query, load int) int
}

// LoadAwarePolicy lets a policy weigh group admission against the engine's
// current load rather than only the prospective group size. Closed-loop
// traffic grows groups one arrival at a time, so a pure m-based test
// evaluates sharing at m = 2 even when eight queries are in flight — and a
// hybrid share-vs-parallelize policy would then refuse the group it should
// anchor. When a policy implements this interface the engine consults
// ShouldJoinUnderLoad instead of ShouldJoin at submission time.
type LoadAwarePolicy interface {
	SharePolicy
	// ShouldJoinUnderLoad reports whether a query should join a group that
	// would then have m members, while load queries (including this one)
	// are active engine-wide. canParallel reports whether the plan could
	// alternatively run as partitioned clones — when false the policy must
	// not refuse sharing in favor of a parallelize arm the engine cannot
	// realize (the refusal would silently degrade to run-alone).
	ShouldJoinUnderLoad(q core.Query, m, load int, canParallel bool) bool
	// ShouldAttachUnderLoad is the in-flight counterpart: whether to attach
	// to a scan with the given remaining shared fraction when the group
	// would have m live members and load queries are active. Policies
	// without in-flight reasoning can delegate to their ShouldAttach.
	ShouldAttachUnderLoad(q core.Query, m int, remaining float64, load int, canParallel bool) bool
}

// PivotPolicy extends SharePolicy with model-guided pivot selection: when a
// query offering several candidate pivot levels (QuerySpec.Pivots) anchors a
// fresh sharing group, the engine asks the policy which level to anchor at.
// Joining an existing group needs no selection — the group's level is fixed
// and the engine probes candidates highest-first.
type PivotPolicy interface {
	SharePolicy
	// ChoosePivot returns the index (into cands, ordered highest pivot
	// first) of the level a new group should anchor at, while load queries
	// (including this one) are active. Each candidate is the query's model
	// compiled at that level. Return a negative index to keep the spec's
	// declared pivot.
	ChoosePivot(cands []core.Query, load int) int
}

// AttachPolicy extends SharePolicy with the in-flight admission test:
// whether a query should attach to a scan already in progress, given the
// fraction of the table it would genuinely share (the residual circle of
// the longest-living current consumer — see storage.CircularScan.Remaining).
// Only that fraction is consumed riding alongside existing members; the
// rest is re-scanned solely for the joiner, extra pivot work the model must
// charge against the sharing benefit.
type AttachPolicy interface {
	SharePolicy
	// ShouldAttach reports whether a query with the given model should join
	// an in-flight group that would then have m live members, when remaining
	// is the fraction of the scan it would share with them.
	ShouldAttach(q core.Query, m int, remaining float64) bool
}

// Handle tracks one submitted query.
type Handle struct {
	name   string
	done   chan struct{}
	onDone func(*storage.Batch, error)

	// resultKey/resultModel/resultEpoch describe the query's result as a
	// cacheable artifact (set at submit when the engine runs with a
	// keep-alive cache and the spec's fingerprint covers the whole plan):
	// the sink offers the finished batch to the cache under resultKey, and
	// a fingerprint-matching arrival at the same epoch is served from it.
	resultKey   string
	resultModel core.Query
	resultEpoch uint64

	// trace is the query's lifecycle trace;
	// decision is the submit-time decision record, stamped before any of the
	// query's tasks spawn and read lock-free at completion.
	trace    *obs.QueryTrace
	decision core.DecisionRecord

	mu     sync.Mutex
	result *storage.Batch
	err    error

	submitted time.Time
	completed time.Time
}

// Wait blocks until the query finishes and returns its result.
func (h *Handle) Wait() (*storage.Batch, error) {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.result, h.err
}

// Duration returns the query's response time (valid after Wait).
func (h *Handle) Duration() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.completed.Sub(h.submitted)
}

// shareGroup is a set of queries merged at a pivot: one instance of the
// shared sub-plan whose pivot output fans out to every member's private
// chain. Members need not be identical queries — any spec whose shared
// prefix canonicalizes to the group's key may join, each bringing its own
// private chain (residual filters, different aggregates).
type shareGroup struct {
	signature string
	// key is the canonical fingerprint of the shared subplan at the group's
	// pivot level (see fingerprint.go); the joinable map and the work
	// exchange are keyed by it.
	key   string
	pivot *outbox
	// outlet mirrors the group in the unified work-exchange registry so
	// sharing above the scan is as observable as scan-level primitives.
	outlet *storage.Outlet
	// inflight is set instead of pivot when the group's pivot is a declared
	// scan shared through the circular scan registry; such groups admit
	// members after the pivot starts emitting.
	inflight *inflightScan
	// build is set when the group shares a hash-join build side: alone for a
	// pure build group (the whole shared part is the build subtree plus the
	// collector), or next to pivot for a mixed group (a fan-out group whose
	// shared join runs split, its table additionally published under
	// buildKey). Build membership outlives the pivot seal — the table stays
	// attachable until its last prober releases it.
	build    *buildShare
	buildKey string
	spec     QuerySpec
	// trace is the anchor member's lifecycle trace; the group's seal event
	// lands there (joiners see their own attach events).
	trace *obs.QueryTrace

	mu      sync.Mutex
	size    int
	started bool
	err     error
	// onFail runs once, on the first failure, outside g.mu. In-flight
	// groups use it to abort the shared scan: a dead member chain stops
	// draining its head queue, and without the abort the scan task would
	// park on that full queue forever while the still-joinable group kept
	// recruiting new members into the hang.
	onFail func()
}

func (g *shareGroup) fail(err error) {
	g.mu.Lock()
	first := g.err == nil
	if first {
		g.err = err
	}
	hook := g.onFail
	g.mu.Unlock()
	if first && hook != nil {
		hook()
	}
}

func (g *shareGroup) firstError() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Engine is the staged execution engine.
type Engine struct {
	sched *Scheduler
	// ownsSched marks a private pool, which Close stops. Cluster shards
	// share their cluster's pool and leave it to the cluster.
	ownsSched bool
	opts      Options
	clock     *busyClock
	scans     *storage.Exchange
	// cache is the keep-alive shared-artifact cache (nil = retention off).
	cache     *artifact.Cache
	closeOnce sync.Once
	// tracer retains the most recent traceCap per-query lifecycle traces;
	// audit accumulates predicted-vs-measured benefit per decision kind; env
	// is the model environment at the engine's emulated processor count,
	// used to price decisions for the records.
	tracer *obs.Tracer
	audit  *obs.Audit
	env    core.Env

	mu sync.Mutex
	// sweepStop ends the periodic sweep goroutine (nil when none running).
	sweepStop chan struct{}
	// closed is set by Close; it gates StartSweep so a late sweep can never
	// outlive the engine.
	closed bool
	// drained is created by Drain and closed when active reaches zero; a
	// non-nil value means the engine refuses new submissions.
	drained  chan struct{}
	joinable map[string]*shareGroup // keyed by subplan share key
	// compiled memoizes submit-path compile artifacts per QuerySpec.PlanKey
	// (see compile.go); n.CompileHits/n.CompileMisses count reuse.
	compiled map[string]*Compiled
	// tableIdent binds each scanned table name to the first *storage.Table
	// instance this engine saw under it (guarded by identMu, not e.mu —
	// compiles run without the engine lock). Share keys canonicalize scans
	// by name, and names are not an in-process identity: a same-named
	// distinct instance (drop-and-recreate, a second catalog) is qualified
	// by its process-unique ID so its groups and cached artifacts can never
	// cross with the first instance's (see tableIdentity).
	identMu    sync.Mutex
	tableIdent map[string]*storage.Table
	// n holds the counters the engine owns (see Counters); its Cache,
	// Steals and Parks stay zero, filled in by the snapshot.
	n Counters
	// calibNS is the EWMA of wall-nanoseconds per unit of modeled work u′,
	// learned from queries that ran effectively alone; the audit uses it to
	// turn the model's alone estimate into an expected wall time.
	calibNS float64
}

// New creates and starts an engine emulating opts.Workers processors on a
// worker pool of its own.
func New(opts Options) (*Engine, error) {
	sched, err := NewScheduler(opts.Workers)
	if err != nil {
		return nil, err
	}
	e := newEngine(opts, sched)
	e.ownsSched = true
	if !opts.StartPaused {
		sched.Start()
	}
	return e, nil
}

// newEngine builds an engine whose tasks run on sched. It neither starts
// nor stops sched: that is the owner's job (New for a private pool, the
// Cluster for the pool its shards share).
func newEngine(opts Options, sched *Scheduler) *Engine {
	opts = opts.withDefaults()
	scans := opts.Bus
	if scans == nil {
		scans = storage.NewExchange()
	}
	e := &Engine{
		sched:      sched,
		opts:       opts,
		clock:      newBusyClock(opts.Profile),
		scans:      scans,
		cache:      opts.Cache,
		tracer:     obs.NewTracer(traceCap),
		audit:      obs.NewAudit(),
		env:        core.NewEnv(float64(opts.Workers)),
		joinable:   make(map[string]*shareGroup),
		compiled:   make(map[string]*Compiled),
		tableIdent: make(map[string]*storage.Table),
		n:          Counters{PivotJoins: make(map[int]int64)},
	}
	if opts.SweepInterval > 0 {
		e.StartSweep(opts.SweepInterval, opts.SweepAge)
	}
	return e
}

// Start launches a paused engine's processors. It is idempotent and a no-op
// for engines created running. On a cluster shard it starts the pool every
// shard runs on.
func (e *Engine) Start() { e.sched.Start() }

// StartSweep launches the background exchange sweep on the given cadence —
// the late counterpart of Options.SweepInterval, for drivers that decide on
// a sweep after construction (a server enabling reclamation once it starts
// accepting traffic). maxAge ≤ 0 defaults to the cadence. It reports whether
// the sweep started: false when a sweep is already running, the cadence is
// non-positive, or the engine is closed. The closed check is what keeps a
// late start from leaking the ticker goroutine — a sweep started after
// Close would otherwise never receive the stop signal Close already sent.
func (e *Engine) StartSweep(every, maxAge time.Duration) bool {
	if every <= 0 {
		return false
	}
	if maxAge <= 0 {
		maxAge = every
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.sweepStop != nil {
		return false
	}
	e.sweepStop = make(chan struct{})
	go e.sweepLoop(every, maxAge, e.sweepStop)
	return true
}

// Close shuts the engine down. Outstanding queries are abandoned, the
// periodic sweep (if any) stops. Idempotent. A cluster shard leaves the
// shared pool running: Cluster.Close stops it.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		stop := e.sweepStop
		e.mu.Unlock()
		if stop != nil {
			close(stop)
		}
		if e.ownsSched {
			e.sched.Stop()
		}
	})
}

// ErrDraining is returned by Submit once Drain has been called: the engine
// finishes what it has but admits nothing new.
var ErrDraining = fmt.Errorf("engine: draining, not accepting new queries")

// Drain stops admission and blocks until every in-flight query has
// completed. Subsequent Submits fail with ErrDraining; groups already
// running finish normally (their members' results and callbacks are
// delivered). Drain is idempotent and safe to call concurrently; every
// caller returns once the engine is idle. The caller typically follows with
// Close.
func (e *Engine) Drain() {
	e.mu.Lock()
	if e.drained == nil {
		e.drained = make(chan struct{})
		if e.n.Active == 0 {
			close(e.drained)
		}
	}
	ch := e.drained
	e.mu.Unlock()
	<-ch
}

// Draining reports whether Drain has been called.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.drained != nil
}

// Workers returns the emulated processor count: Options.Workers, which on a
// cluster shard is the shard's share of the pool.
func (e *Engine) Workers() int { return e.opts.Workers }

// BusyTimes returns per-node accumulated busy time (Profile mode only).
func (e *Engine) BusyTimes() map[string]time.Duration { return e.clock.snapshot() }

// SweepExchange force-retires work-exchange entries no consumer will ever
// reclaim — superseded orphans and wedged or unreferenced build states older
// than maxAge — returning the number reclaimed, and prunes joinable build
// groups whose table has retired. Long-running drivers call it periodically
// (or set Options.SweepInterval and let the engine do so). The keep-alive
// cache runs its own clock: the sweep only releases bytes held by entries
// already past their keep-alive window, never live ones — sweeping and
// caching do not interfere.
func (e *Engine) SweepExchange(maxAge time.Duration) int {
	n := e.scans.Sweep(maxAge)
	if e.cache != nil {
		e.cache.ExpireTTL()
	}
	e.mu.Lock()
	for k, g := range e.joinable {
		if g.build != nil && k == g.buildKey && g.build.state.Retired() {
			delete(e.joinable, k)
		}
	}
	e.mu.Unlock()
	return n
}

// Exchange exposes the engine's work exchange — circular scans,
// partitioned scans, and shared subplan outlets — for monitoring.
func (e *Engine) Exchange() *storage.Exchange { return e.scans }

// Submit enqueues a query for execution. If policy is non-nil the engine
// tries to share: join an existing compatible group when the policy agrees,
// otherwise start a new joinable group. A nil policy always executes
// independently (never-share).
func (e *Engine) Submit(spec QuerySpec, policy SharePolicy) (*Handle, error) {
	return e.SubmitFn(spec, policy, nil)
}

// SubmitFn is Submit with a completion callback, invoked from the engine
// worker that finishes the query (after the handle is resolved). Closed-loop
// drivers use it to resubmit without dedicating a goroutine per client —
// essential on hosts where spare OS-level parallelism is scarce.
//
// The query is committed to the first regime, in this order, that the
// policy admits and that can still be realized:
//
//  1. a retained result run at the current epoch (cache-result);
//  2. for each pivot candidate, highest level first: the local group
//     joinable there — a fan-out group (share), an in-flight scan (attach)
//     or a shared hash build (build-share) — or, for a build candidate
//     with no local group, a build state on the shared bus (bus-share),
//     then a table retained in the keep-alive cache (cache-build);
//  3. partitioned clones, when the spec or a ParallelPolicy asks for a
//     degree above 1 (parallel);
//  4. a fresh group (anchor), or a run of its own under a nil policy
//     (alone).
//
// Every regime then runs the same tail (commitLocked).
func (e *Engine) SubmitFn(spec QuerySpec, policy SharePolicy, onDone func(*storage.Batch, error)) (*Handle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Resolve the spec's compile artifact — memoized per PlanKey, so a
	// repeated family pays a few atomic epoch loads instead of re-rendering
	// every canonical fingerprint (see compile.go).
	cp, compileHit := e.compileForHit(spec)
	h := &Handle{name: spec.Signature, done: make(chan struct{}), onDone: onDone, submitted: time.Now()}
	h.trace = e.tracer.Begin(spec.Signature)
	h.trace.Event("submit", spec.Signature)
	if compileHit {
		h.trace.Event("compile", "hit")
	} else {
		h.trace.Event("compile", "miss")
	}

	// With a keep-alive cache and a whole-plan fingerprint, the query's
	// result is itself a shareable artifact: tag the handle so the sink
	// offers the finished batch to the cache. A nil policy means
	// never-share, which extends to never seeding or reading retained work.
	if e.cache != nil && policy != nil && cp.resultOK {
		h.resultKey = cp.resultKey
		h.resultModel = cp.resultModelFor(spec)
		h.resultEpoch = cp.epochAtNode(len(spec.Nodes) - 1)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.drained != nil {
		return nil, ErrDraining
	}
	if err := e.decideLocked(spec, policy, h, cp); err != nil {
		return nil, err
	}
	return h, nil
}

// decision is one resolved candidate regime: the record stampDecision
// writes, and what realizes it. opt carries the pivot and the model the
// query runs at; a build option marks a build share.
type decision struct {
	kind       string
	opt        PivotOption
	m          int
	z, speedup float64
	// join is the local group a share, attach or build-share joins.
	join *shareGroup
	// src is where a bus-share's or cache-build's table comes from.
	src buildSource
	// res is the retained result run a cache-result serves.
	res *storage.Batch
	// remaining is the fraction of the scan an in-flight attach shares.
	remaining float64
}

// decideLocked resolves the query's regime in SubmitFn's order and commits
// it. A candidate whose realization fails — its table or scan retired since
// the lookup — falls through to the next. Caller holds e.mu.
func (e *Engine) decideLocked(spec QuerySpec, policy SharePolicy, h *Handle, cp *Compiled) error {
	var d decision
	// Serve the query outright when a fingerprint-matching result run at
	// the current epoch is retained — the across-burst analogue of joining
	// a group whose pivot is the root, so it passes the same admission test
	// as a size-2 group.
	if h.resultKey != "" && e.admitSharedLocked(policy, h.resultModel, 2, spec.CanParallel()) {
		if res, ok := e.lookupCachedResult(h); ok {
			d = decision{kind: "cache-result", opt: PivotOption{Pivot: len(spec.Nodes) - 1, Model: h.resultModel}, m: 2, res: res}
			d.z, d.speedup = e.shareBenefit(h.resultModel, 2)
			_, err := e.commitLocked(spec, policy, h, cp, &d)
			return err
		}
	}
	if policy != nil {
		// Probe the candidate pivots highest level first: the paper defines
		// the pivot as the highest point where sharing is possible, and a
		// group at a higher level eliminates strictly more work per joiner.
		// opt is a local copy whose model comes from the incoming spec —
		// admission always prices with the caller's current estimates, even
		// on a warm compile hit.
		for j, opt := range cp.opts {
			opt.Model = cp.optModel(spec, j)
			key := cp.keys[j]
			g := e.joinable[key]
			if g != nil && opt.Build && g.build.state.Retired() {
				// The table's last prober released it (or the sweep
				// reclaimed a wedged build); prune the stale entry. The
				// retired table may live on in the keep-alive cache, where
				// the consult below finds it.
				delete(e.joinable, key)
				g = nil
			}
			if g != nil {
				if e.joinDecisionLocked(&d, g, spec, policy, opt) {
					if ok, err := e.commitLocked(spec, policy, h, cp, &d); ok || err != nil {
						return err
					}
				}
				continue
			}
			if !opt.Build {
				continue
			}
			// No live local build at this level. On a shared bus the build
			// may be live on another engine — in flight or sealed but not
			// yet retired; attaching is sharing with that engine's group, so
			// it passes the usual admission test with m counting the state's
			// cluster-wide probers. The attach anchors a local foreign share
			// the rest of this shard's burst then joins like any build group.
			if e.opts.Bus != nil {
				if st := e.scans.LookupBuildState(key); st != nil {
					if m := st.Refs() + 1; e.admitSharedLocked(policy, opt.Model, m, spec.CanParallel()) {
						d = decision{kind: "bus-share", opt: opt, m: m, src: buildSource{origin: foreign, state: st}}
						d.z, d.speedup = e.buildBenefit(opt.Model, m)
						if ok, err := e.commitLocked(spec, policy, h, cp, &d); ok || err != nil {
							return err
						}
					}
				}
			}
			// Consult the keep-alive cache, under the same admission test as
			// joining a size-2 group (attaching to retained work is sharing
			// with the departed group that produced it). A hit anchors a
			// cache-served group — the table is already sealed, the build
			// subtree never runs, and this query registers as a late attach
			// with zero build work — which the rest of the burst then joins
			// like any build group.
			if e.admitSharedLocked(policy, opt.Model, 2, spec.CanParallel()) {
				if tbl, ok := e.lookupCachedTable(key, cp.epochs[j]); ok {
					d = decision{kind: "cache-build", opt: opt, m: 2, src: buildSource{origin: retained, table: tbl}}
					d.z, d.speedup = e.buildBenefit(opt.Model, 2)
					if ok, err := e.commitLocked(spec, policy, h, cp, &d); ok || err != nil {
						return err
					}
				}
			}
		}
	}
	// Not sharing. The share-vs-parallelize decision: an explicit spec
	// degree wins, else a ParallelPolicy chooses one under the current load;
	// degree > 1 on a parallelizable plan runs partitioned clones instead of
	// the serial pipeline. Parallel runs are never joinable — they are the
	// unshared alternative the model weighs sharing against.
	d = decision{kind: "alone", opt: PivotOption{Pivot: spec.Pivot, Model: spec.Model}, m: 1, speedup: 1}
	if n := e.parallelDegreeLocked(spec, policy); n > 1 {
		d.kind, d.m, d.speedup = "parallel", n, core.ParallelSpeedup(spec.Model, n, e.env)
	} else if policy != nil {
		// A fresh group. When the spec offers several pivot levels, a
		// pivot-selecting policy chooses where to anchor it — possibly at a
		// build-side candidate, making the fresh group a pure build group;
		// otherwise the declared pivot stands. An anchor runs alone until
		// someone joins: predicted speedup 1, with the prospective margin
		// for the next joiner recorded as Z.
		d.kind = "anchor"
		if pp, ok := policy.(PivotPolicy); ok && len(spec.Pivots) > 0 {
			cands := make([]core.Query, len(cp.opts))
			for i := range cp.opts {
				cands[i] = cp.optModel(spec, i)
			}
			if i := pp.ChoosePivot(cands, e.n.Active+1); i >= 0 && i < len(cp.opts) {
				d.opt = cp.opts[i]
				d.opt.Model = cands[i]
			}
		}
		if d.opt.Build {
			d.z, _ = e.buildBenefit(d.opt.Model, 2)
		} else {
			d.z, _ = e.shareBenefit(d.opt.Model, 2)
		}
	}
	_, err := e.commitLocked(spec, policy, h, cp, &d)
	return err
}

// joinDecisionLocked prices joining the local group g at candidate opt and
// reports whether the policy admits it, filling d when it does. The group's
// shape sets the test: a build share admits at any time, an in-flight scan
// while it still has a live cursor, a fan-out group only before its pivot
// emits. Caller holds e.mu.
func (e *Engine) joinDecisionLocked(d *decision, g *shareGroup, spec QuerySpec, policy SharePolicy, opt PivotOption) bool {
	switch {
	case opt.Build:
		// The joinable entry is a shared hash build (pure or published by a
		// mixed group); members attach to the table — before or after it
		// seals — and run everything outside the build subtree privately.
		g.mu.Lock()
		m := g.size + 1
		g.mu.Unlock()
		if !e.admitSharedLocked(policy, opt.Model, m, spec.CanParallel()) {
			return false
		}
		*d = decision{kind: "build-share", opt: opt, m: m, join: g}
		d.z, d.speedup = e.buildBenefit(opt.Model, m)
	case g.inflight != nil:
		// Members attach to the circular scan at its current cursor, whether
		// or not the pivot has emitted. g.firstError guards the window
		// between a member failing and its abort closing the scan: an
		// arrival there must not inherit the doomed group's error.
		ap, ok := policy.(AttachPolicy)
		if !ok || g.firstError() != nil {
			return false
		}
		remaining, active, live := g.inflight.scan.Remaining()
		if !live {
			return false
		}
		m := active + 1
		if lap, ok := policy.(LoadAwarePolicy); ok {
			if !lap.ShouldAttachUnderLoad(opt.Model, m, remaining, e.n.Active+1, spec.CanParallel()) {
				return false
			}
		} else if !ap.ShouldAttach(opt.Model, m, remaining) {
			return false
		}
		*d = decision{kind: "attach", opt: opt, m: m, join: g, remaining: remaining}
		d.z, d.speedup = e.shareBenefit(core.AttachAdjusted(opt.Model, m, remaining), m)
	default:
		g.mu.Lock()
		started := g.started
		m := g.size + 1
		g.mu.Unlock()
		if started || !e.admitSharedLocked(policy, opt.Model, m, spec.CanParallel()) {
			return false
		}
		*d = decision{kind: "share", opt: opt, m: m, join: g}
		d.z, d.speedup = e.shareBenefit(opt.Model, m)
	}
	return true
}

// commitLocked is the one tail every decision runs: stamp the record before
// anything spawns, attach the query to d.join or construct its group,
// register a new group as joinable, count the decision, and emit its trace
// events. It returns false, having committed nothing, when the table
// or scan d found retired before the attach; the caller then resolves the
// next candidate (a failed attach spawns nothing, so restamping is safe).
// Caller holds e.mu.
func (e *Engine) commitLocked(spec QuerySpec, policy SharePolicy, h *Handle, cp *Compiled, d *decision) (bool, error) {
	e.stampDecision(h, d.kind, d.opt.Pivot, d.m, d.opt.Model, d.z, d.speedup)
	// The query's view of the spec at the decision's level: the private
	// chain starts above the pivot and the model carries the coefficients
	// compiled there.
	mspec := spec
	mspec.Pivot, mspec.Model = d.opt.Pivot, d.opt.Model
	var g *shareGroup // a group this decision constructs
	var err error
	switch {
	case d.res != nil:
		e.serveResult(h, d.res)
	case d.join != nil:
		ok, err := e.attachLocked(d.join, mspec, h, cp, d.opt.Build)
		if !ok || err != nil {
			return false, err
		}
	case d.kind == "parallel":
		err = e.newParallelGroupLocked(spec, h, d.m, cp)
	case d.opt.Build:
		if g, err = e.newBuildGroupLocked(spec, d.opt, h, cp, d.src); g == nil && err == nil {
			return false, nil
		}
	default:
		g, err = e.newGroupLocked(mspec, h, policy, cp)
	}
	if err != nil {
		return false, err
	}
	if g != nil && policy != nil {
		e.joinable[g.key] = g
		if g.build != nil {
			// A mixed group is additionally joinable at its build subtree.
			e.joinable[g.buildKey] = g
		}
	}
	// The decision's anchor/attach trace event and its counters, one case
	// per kind. A cache-served result completes off the engine and counts
	// only when served.
	var role, detail string
	switch d.kind {
	case "cache-result":
		role, detail = "serve", "cached result run"
	case "bus-share":
		role, detail = "attach", "bus build state"
		e.n.BuildJoins++
		e.n.BusJoins++
		e.n.PivotJoins[d.opt.Pivot]++
	case "cache-build":
		role, detail = "anchor", "cache-served build"
		e.n.BuildJoins++
		e.n.PivotJoins[d.opt.Pivot]++
	case "build-share":
		role, detail = "attach", "shared hash build"
		e.n.BuildJoins++
		e.n.PivotJoins[d.opt.Pivot]++
	case "attach":
		role, detail = "attach", fmt.Sprintf("inflight scan remaining=%.2f", d.remaining)
		e.n.InflightAttaches++
		e.n.PivotJoins[d.opt.Pivot]++
	case "share":
		role, detail = "attach", "pivot group"
		e.n.PivotJoins[d.opt.Pivot]++
	case "parallel":
		role, detail = "anchor", fmt.Sprintf("partitioned clones d=%d", d.m)
		e.n.ParallelRuns++
		e.n.ParallelClones += int64(d.m)
	case "alone":
		role, detail = "anchor", "unshared run"
	case "anchor":
		role, detail = "anchor", "pivot group"
		if d.opt.Build {
			detail = "build group"
		}
		if g.build != nil && g.build.origin == retained {
			// A mixed group whose split join is served from the cache: the
			// anchor attaches late to the retained build, which no one runs.
			e.n.BuildJoins++
			e.n.PivotJoins[g.build.pivot]++
		}
	}
	if d.kind != "cache-result" {
		e.n.Active++
	}
	emitDecision(h, role, detail)
	return true, nil
}

// admitSharedLocked runs the submission-time admission test shared by every
// sharing path: the load-aware form when the policy supports it, the plain
// m-based Section 8 test otherwise, never for a nil policy. Cache-served
// attaches use it with m = 2 — attaching to retained work is sharing with
// the departed group that produced it — so never-share-style policies are
// not quietly handed shared artifacts. Caller holds e.mu.
func (e *Engine) admitSharedLocked(policy SharePolicy, model core.Query, m int, canParallel bool) bool {
	if policy == nil {
		return false
	}
	if lap, ok := policy.(LoadAwarePolicy); ok {
		return lap.ShouldJoinUnderLoad(model, m, e.n.Active+1, canParallel)
	}
	return policy.ShouldJoin(model, m)
}

// parallelDegreeLocked resolves the clone degree for an unshared execution
// of spec: the spec's explicit request, else the policy's choice, clamped
// to the emulated processor count. Caller holds e.mu.
func (e *Engine) parallelDegreeLocked(spec QuerySpec, policy SharePolicy) int {
	if !spec.CanParallel() {
		return 1
	}
	d := spec.Parallel
	if d == 0 {
		if pp, ok := policy.(ParallelPolicy); ok {
			d = pp.Degree(spec.Model, e.n.Active+1)
		}
	}
	if d > e.opts.Workers {
		d = e.opts.Workers
	}
	if d < 1 {
		d = 1
	}
	return d
}

// newGroupLocked instantiates the shared sub-plan — the subtree rooted at
// the pivot — and the first member's private part. Caller holds e.mu. A
// non-nil policy makes the group joinable (it will accept further members);
// only joinable groups with a declared scan pivot get the in-flight
// machinery. When the shared subtree contains a join with split Build/Probe
// forms declared as a build candidate, the join runs split and the group
// additionally publishes its hash table under the build key (a mixed
// group) — a retained table, served from the keep-alive cache, when the
// policy admits retained work and a fingerprint-matching table is live at
// the current epoch.
func (e *Engine) newGroupLocked(spec QuerySpec, h *Handle, policy SharePolicy, cp *Compiled) (*shareGroup, error) {
	joinable := policy != nil
	if e.opts.InflightSharing && joinable && spec.Nodes[spec.Pivot].Scan != nil {
		return e.newInflightGroupLocked(spec, h, cp)
	}
	g := &shareGroup{signature: spec.Signature, key: cp.shareKeyAt(spec.Pivot), spec: spec, trace: h.trace}
	pivotOut := &outbox{fanOut: e.opts.FanOut}
	pivotOut.onFirstEmit = func() { e.sealGroup(g) }
	g.pivot = pivotOut
	if joinable {
		// Mirror the shared pipeline in the work-exchange registry: monitors
		// see subplan outlets next to circular and partitioned scans, and
		// the outlet retires when the pivot's output stream ends.
		g.outlet = e.scans.PublishOutlet(g.key)
		outlet := g.outlet
		pivotOut.onClosed = func() {
			outlet.Retire()
			// A pivot stream that ends without emitting a single page never
			// fires onFirstEmit; seal here too, or the spent group stays in
			// e.joinable and later same-key arrivals attach to a closed
			// outbox that can never feed or close their input queues.
			e.sealGroup(g)
		}
	}

	// A shareable build side inside the shared subtree: run the join split
	// and publish the table so different-shaped queries can still amortize
	// the build even when they cannot match the anchor level. A retained
	// table starts the share sealed, and retainedBuild masks the
	// build-subtree nodes that then never spawn.
	splitJoin := -1
	var bs *buildShare
	var retainedBuild []bool
	if joinable {
		if opt, joinIdx, ok := buildOptionWithin(spec, spec.Pivot); ok {
			splitJoin = joinIdx
			key := cp.buildKeyAt(opt.Pivot)
			var src buildSource
			if e.cache != nil && e.admitSharedLocked(policy, opt.Model, 2, spec.CanParallel()) {
				if tbl, hit := e.lookupCachedTable(key, cp.epochAtNode(opt.Pivot)); hit {
					src = buildSource{origin: retained, table: tbl}
					retainedBuild = spec.SubtreeMask(opt.Pivot)
				}
			}
			bs = e.newBuildShareLocked(g, key, opt, cp, src)
		}
	}
	// A construction error below must not strand the published build state:
	// abort it so waiters fail fast and the exchange entry retires.
	built := false
	defer func() {
		if !built && bs != nil {
			bs.failShare()
		}
	}()

	// Wire the first member's private part before spawning anything so the
	// pivot has a consumer from the start.
	if _, err := e.attachLocked(g, spec, h, cp, false); err != nil {
		return nil, err
	}
	mask := spec.SubtreeMask(spec.Pivot)
	include := func(i int) bool {
		return mask[i] && !(retainedBuild != nil && retainedBuild[i])
	}
	if err := e.spawnShared(g, spec, include, pivotOut, splitJoin); err != nil {
		return nil, err
	}
	built = true
	return g, nil
}

// collectorTask builds the task that drains the split join nd's build input
// from in into the group's shared table and seals it.
func (e *Engine) collectorTask(g *shareGroup, nd NodeSpec, in *PageQueue) (pendingSpawn, error) {
	jb, err := nd.Build()
	if err != nil {
		return pendingSpawn{}, err
	}
	c := &buildCollectorTask{name: nd.Name + "/build", jb: jb, in: in, bs: g.build, clock: e.clock, fail: g.fail}
	return pendingSpawn{c.name, c.step}, nil
}

// pendingSpawn is a task built but not yet spawned: group construction
// builds every task first, so an error part-way leaves none running.
type pendingSpawn struct {
	name string
	step func(*Task) Status
}

// spawnShared instantiates and spawns a group's shared part: the nodes
// include selects, fused into segments. Each segment's tail feeds pivotOut
// when it is the group's pivot, or else a fresh queue its consumer reads. The
// join at splitJoin (-1 = none) runs split over the group's build share: a
// collector builds the table from the join's build input (unless the table
// is retained), and when the join itself is shared — a mixed group — one
// shared probe streams the group's probe side against the table, through the
// segment's fused chain, into the fan-out. A pure build group's join lies
// outside its shared part: each member probes privately.
func (e *Engine) spawnShared(g *shareGroup, spec QuerySpec, include func(int) bool, pivotOut *outbox, splitJoin int) error {
	runs, _ := fuseRuns(spec, include, e.fuseOK())
	outs := make([]*outbox, len(spec.Nodes))
	queues := make([]*PageQueue, len(spec.Nodes))
	for _, r := range runs {
		tl := r.tail()
		if tl == spec.Pivot && pivotOut != nil {
			outs[tl] = pivotOut
			continue
		}
		q := NewPageQueue(e.sched, spec.Nodes[tl].Name, e.opts.QueueCap)
		queues[tl] = q
		outs[tl] = &outbox{outs: []*PageQueue{q}}
	}
	// Every task is built before any spawns, so an error part-way leaves
	// none behind; the buffer keeps a plan's handful of tasks off the heap.
	var buf [8]pendingSpawn
	spawns := buf[:0]
	bs := g.build
	qOf := func(idx int) *PageQueue { return queues[idx] }
	for _, r := range runs {
		nd := spec.Nodes[r.head]
		if r.head == splitJoin {
			if bs.origin == builtHere {
				c, err := e.collectorTask(g, nd, queues[nd.BuildInput])
				if err != nil {
					return err
				}
				spawns = append(spawns, c)
			}
			// The group holds the shared probe's prober reference.
			if !bs.attachProber() {
				return fmt.Errorf("%w: fresh build state rejected attach", ErrBadSpec)
			}
			ob := outs[r.tail()]
			pr, err := fusedProbeOp(spec.Nodes, nd, r, ob)
			if err != nil {
				return err
			}
			prober := &probeAttachTask{name: fusedName(spec.Nodes, r), bs: bs, ready: bs.newWaiter(e.sched, nd.Name), probe: pr, in: queues[nd.ProbeInput], out: ob, clock: e.clock, fail: g.fail}
			spawns = append(spawns, pendingSpawn{prober.name, prober.step})
			continue
		}
		name, step, err := e.fusedTask(spec, r, qOf, outs[r.tail()], g.fail)
		if err != nil {
			return err
		}
		spawns = append(spawns, pendingSpawn{name, step})
	}
	if splitJoin >= 0 && !include(splitJoin) {
		// A pure build group: its collector consumes the shared part.
		nd := spec.Nodes[splitJoin]
		c, err := e.collectorTask(g, nd, queues[nd.BuildInput])
		if err != nil {
			return err
		}
		spawns = append(spawns, c)
	}
	for _, p := range spawns {
		e.sched.Spawn(p.name, p.step)
	}
	return nil
}

// nodeTask instantiates the execution task for one plan node whose output
// goes to ob, resolving input queues through qOf. It covers the three plain
// node kinds — shared-subtree and member instantiation both route through
// it; only the build-share split forms (collector, probe-attach) are wired
// at the call sites.
func (e *Engine) nodeTask(nd NodeSpec, qOf func(int) *PageQueue, ob *outbox, fail func(error)) (func(*Task) Status, error) {
	emit := func(b *storage.Batch) error { ob.add(b); return nil }
	switch {
	case nd.IsSource():
		src, err := nd.NewSource()
		if err != nil {
			return nil, err
		}
		return (&sourceTask{name: nd.Name, src: src, out: ob, clock: e.clock, fail: fail}).step, nil
	case nd.Op != nil:
		op, err := nd.Op(emit)
		if err != nil {
			return nil, err
		}
		return (&opTask{name: nd.Name, push: op.Push, finish: op.Finish, in: qOf(nd.Input), out: ob, clock: e.clock, fail: fail, releaseInput: relop.Consumes(op)}).step, nil
	case nd.Join != nil:
		jn, err := nd.Join(emit)
		if err != nil {
			return nil, err
		}
		return (&joinTask{name: nd.Name, join: jn, build: qOf(nd.BuildInput), probe: qOf(nd.ProbeInput), out: ob, clock: e.clock, fail: fail, building: true, releaseInput: relop.Consumes(jn)}).step, nil
	default:
		return nil, fmt.Errorf("%w: node %s has no executable form", ErrBadSpec, nd.Name)
	}
}

// newBuildShareLocked creates group g's share of the hash table built from
// the subtree of spec rooted at the build candidate opt, and wires it to g:
// a member's failure fails the share and seals the group.
// key is the build-state share key of that subtree. src says where the table
// comes from:
//
//   - built here: publish a fresh state whose seal bumps the engine's
//     executed-build counter;
//   - retained: publish a state that starts sealed on the cached table;
//   - foreign: wrap the other engine's state, publishing nothing.
//
// An owned state (built here or retained) is pruned from the joinable map
// lazily once retired — at the next probe of its key or the next
// SweepExchange — so retirement never needs e.mu. With a keep-alive cache its
// retire hand-off offers the sealed table for retention, at the source
// tables' epoch the artifact was (or will be) built at and priced by
// opt.Model — compiled at the build pivot — as the rebuild a future hit
// would save. Caller holds e.mu.
func (e *Engine) newBuildShareLocked(g *shareGroup, key string, opt PivotOption, cp *Compiled, src buildSource) *buildShare {
	bs := &buildShare{key: key, pivot: opt.Pivot, origin: src.origin, state: src.state}
	g.build = bs
	g.buildKey = key
	// A member failure poisons the whole group (its error reaches every
	// sink), so stop recruiting into it on either key: fail the share and
	// seal the group. Without this a mixed group's sealed, still-referenced
	// state would keep admitting fingerprint-matching queries into the stale
	// failure — and a wedged dead chain would make it unsweepable too.
	g.onFail = func() {
		bs.failShare()
		e.sealGroup(g)
	}
	if src.origin == foreign {
		return bs
	}
	bs.state = e.scans.PublishBuildState(key)
	bs.recycle = e.cache == nil
	if src.origin == builtHere {
		bs.onSeal = func() {
			e.mu.Lock()
			e.n.HashBuilds++
			e.mu.Unlock()
		}
	}
	if e.cache != nil {
		cache, model, epoch := e.cache, opt.Model, cp.epochAtNode(opt.Pivot)
		bs.state.SetHandoff(func(v any) {
			if tbl, ok := v.(*relop.HashTable); ok {
				cache.Put(key, tbl, tbl.FootprintBytes(), model, epoch)
			}
		})
	}
	if src.origin == retained {
		bs.seal(src.table)
	}
	return bs
}

// newBuildGroupLocked instantiates a pure build group anchored at the
// build-side pivot candidate opt: every member — the anchor included —
// attaches a private probe phase to the group's one hash table and runs
// everything outside the build subtree itself. src says where the table
// comes from (see buildOrigin):
//
//   - built here: the shared part is the build subtree plus the collector
//     that seals the table, spawned once the anchor is wired;
//   - retained: the table was served from the keep-alive cache, so the
//     share starts sealed, nothing is built, and the anchor probes the
//     table at once; when its last prober releases, the hand-off re-offers
//     the table to the cache with its original epoch;
//   - foreign: another shard's state on the bus; the anchor parks until the
//     owner seals, and a local failure never retires the owner's state. A
//     state that retired between the caller's lookup and the attach returns
//     (nil, nil), and the caller falls through to its remaining candidates.
//
// The group stays joinable until the last prober releases the table (or the
// build fails, or the sweep retires a wedged build). Caller holds e.mu.
func (e *Engine) newBuildGroupLocked(spec QuerySpec, opt PivotOption, h *Handle, cp *Compiled, src buildSource) (*shareGroup, error) {
	gspec := spec
	gspec.Pivot = opt.Pivot
	gspec.Model = opt.Model
	g := &shareGroup{signature: spec.Signature, spec: gspec, trace: h.trace}
	bs := e.newBuildShareLocked(g, cp.buildKeyAt(opt.Pivot), opt, cp, src)
	g.key = g.buildKey

	// A construction error below must not strand the state (or a half-wired
	// first member): fail the share so waiters wake into the failure path
	// and an owned exchange entry retires.
	built := false
	defer func() {
		if !built {
			bs.failShare()
		}
	}()

	// The anchor (probe side and above), wired before any build task spawns.
	attached, err := e.attachLocked(g, gspec, h, cp, true)
	if err != nil {
		return nil, err
	}
	if !attached {
		if src.origin == foreign {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: fresh build state rejected attach", ErrBadSpec)
	}

	switch src.origin {
	case foreign:
		// Subscribe after the attach: the prober reference pins the state,
		// so the subscription always resolves — immediately when the owner
		// has already sealed, at the owner's seal otherwise, and with
		// sealed=false if the owner's build fails (waking local waiters into
		// the failure path).
		src.state.Subscribe(func(v any, sealed bool) {
			if tbl, ok := v.(*relop.HashTable); ok && sealed {
				bs.seal(tbl)
				return
			}
			bs.failShare()
		})
	case builtHere:
		// The shared part: the build subtree, fused into segments, feeding
		// the collector that builds and seals the table.
		mask := gspec.SubtreeMask(opt.Pivot)
		include := func(i int) bool { return mask[i] }
		if err := e.spawnShared(g, gspec, include, nil, gspec.pivotConsumer(opt.Pivot)); err != nil {
			return nil, err
		}
	}
	built = true
	return g, nil
}

// newInflightGroupLocked instantiates a group whose pivot is a declared
// scan shared through the circular scan registry. The pivot never seals the
// group; it stays joinable until the scan's last consumer completes. Caller
// holds e.mu.
func (e *Engine) newInflightGroupLocked(spec QuerySpec, h *Handle, cp *Compiled) (*shareGroup, error) {
	g := &shareGroup{signature: spec.Signature, key: cp.shareKeyAt(spec.Pivot), spec: spec, trace: h.trace}
	nd := spec.Nodes[spec.Pivot]
	src, err := nd.Scan.newSource()
	if err != nil {
		return nil, err
	}
	cs := e.scans.Publish(g.key, nd.Scan.Table.NumRows(), src.pageRows)
	fs := newInflightScan(nd.Name, src, cs, e.clock, g.fail, e.opts.FanOut)
	fs.retire = func() { e.sealGroup(g) }
	g.inflight = fs
	// Any member's failure aborts the whole group (its error already poisons
	// every member's result): close the scan and all chains so nothing
	// wedges, and retire so new arrivals start a clean group.
	g.onFail = func() {
		fs.abort()
		e.sealGroup(g)
	}

	// Wire the first member's chain before spawning the scan task so the
	// pivot has a consumer from the start.
	attached, err := e.attachLocked(g, spec, h, cp, false)
	if err != nil {
		return nil, err
	}
	if !attached {
		// Unreachable: a freshly published scan cannot be closed.
		return nil, fmt.Errorf("%w: fresh circular scan rejected attach", ErrBadSpec)
	}
	e.sched.Spawn(nd.Name, fs.step)
	return g, nil
}

// attachLocked adds one member to g — the anchor of a group under
// construction, or a joiner — wiring its private part to the group's shared
// side and then starting it. build selects the group's shared hash build
// (a mixed group offers a page stream too): the member probes the table
// privately. Otherwise the member's chain is fed by the group's in-flight
// circular scan, from its current cursor, or by its pivot fan-out, which the
// caller has found unstarted (sealGroup also takes e.mu, so that holds). It
// returns false, having started nothing, when the table retired or the scan
// finished since the caller found the group. Caller holds e.mu.
func (e *Engine) attachLocked(g *shareGroup, spec QuerySpec, h *Handle, cp *Compiled, build bool) (bool, error) {
	var bs *buildShare
	if build {
		bs = g.build
		if !bs.attachProber() {
			return false, nil
		}
	}
	in, start, err := e.buildMember(g, spec, h, bs, cp)
	if err != nil {
		if bs != nil {
			bs.releaseProber()
		}
		return false, err
	}
	switch {
	case bs != nil:
	case g.inflight != nil:
		if !g.inflight.attach(in) {
			// Nothing was spawned yet; the unstarted chain is garbage
			// collected.
			return false, nil
		}
	default:
		g.pivot.attach(in)
		if g.outlet != nil {
			g.outlet.Attach()
		}
	}
	g.mu.Lock()
	g.size++
	g.mu.Unlock()
	start()
	return true, nil
}

// buildMember constructs one member's private part — every node outside the
// subtree rooted at spec.Pivot, plus the sink — without spawning its tasks.
// The private part is an arbitrary tree: further leaf scans run their own
// source tasks, private joins their own build/probe, unary operators their
// chains. What feeds the member from the shared side depends on bs:
//
//   - bs nil (fan-out and in-flight groups): the node consuming the pivot
//     is fed from the returned head queue, which the caller attaches to the
//     group's fan-out before calling start;
//   - bs non-nil (build-share membership): the join consuming the pivot as
//     its build input runs as a probe phase attached to the shared hash
//     table (head is nil — no pages cross the share boundary at all).
//
// The caller has already taken the member's prober reference when bs is
// non-nil; the spawned probe task releases it when it retires.
func (e *Engine) buildMember(g *shareGroup, spec QuerySpec, h *Handle, bs *buildShare, cp *Compiled) (*PageQueue, func(), error) {
	var head *PageQueue
	if bs == nil {
		head = NewPageQueue(e.sched, spec.Signature+"/pivot-out", e.opts.QueueCap)
	}
	rootIdx := len(spec.Nodes) - 1
	var spawns []pendingSpawn
	sinkIn := head
	if spec.Pivot != rootIdx {
		// The private part fuses like the shared part: segments form over
		// the mask's complement, and only segment tails get a queue. The
		// root is always a tail (the sink is its consumer), so sinkIn is
		// always wired.
		mask := spec.SubtreeMask(spec.Pivot)
		include := func(i int) bool { return !mask[i] }
		runs, _ := fuseRuns(spec, include, e.fuseOK())
		outQ := make([]*PageQueue, len(spec.Nodes))
		for _, r := range runs {
			tl := r.tail()
			outQ[tl] = NewPageQueue(e.sched, spec.Nodes[tl].Name, e.opts.QueueCap)
		}
		// qOf resolves a private node's input: the shared pivot's output
		// arrives on the head queue; everything else is private.
		qOf := func(idx int) *PageQueue {
			if idx == spec.Pivot {
				return head
			}
			return outQ[idx]
		}
		sinkIn = outQ[rootIdx]
		for _, r := range runs {
			nd := spec.Nodes[r.head]
			ob := &outbox{outs: []*PageQueue{outQ[r.tail()]}}
			if nd.Join != nil && bs != nil && nd.BuildInput == spec.Pivot {
				// The member's side of the shared build: probe privately
				// against the group's sealed table, with the segment's
				// fused chain composed onto the probe's emissions.
				pr, err := fusedProbeOp(spec.Nodes, nd, r, ob)
				if err != nil {
					return nil, nil, err
				}
				pname := fusedName(spec.Nodes, r)
				body := &probeAttachTask{name: pname, bs: bs, ready: bs.newWaiter(e.sched, nd.Name), probe: pr, in: qOf(nd.ProbeInput), out: ob, clock: e.clock, fail: g.fail}
				spawns = append(spawns, pendingSpawn{pname, body.step})
				continue
			}
			name, step, err := e.fusedTask(spec, r, qOf, ob, g.fail)
			if err != nil {
				return nil, nil, err
			}
			spawns = append(spawns, pendingSpawn{name, step})
		}
	}
	rootSchema, err := cp.schema(spec, e.rootSchema)
	if err != nil {
		return nil, nil, err
	}
	// The hint is read from the incoming spec, not the artifact: like the
	// models, it is advisory and must track the caller's current estimates.
	sink := e.newSinkTask(g, h, sinkIn, rootSchema, spec.Nodes[rootIdx].RowsHint)
	// Member-private tasks carry the member's trace: one atomic add per
	// quantum, blocked-time across park/wake transitions. Shared-subtree
	// tasks serve the whole group and are attributed to no single member.
	start := func() {
		for _, p := range spawns {
			e.sched.Spawn(p.name, traceStep(h.trace, p.step))
		}
		e.sched.Spawn(spec.Signature+"/sink", traceStep(h.trace, sink.step))
	}
	return head, start, nil
}

// newSinkTask builds the sink that drains in into one member's result batch
// and completes its handle (with the group's first error, if any). hint
// pre-sizes the result's column buffers to the plan's estimated output
// cardinality — the same currency the sharing model prices, spent here on
// allocation instead of admission.
func (e *Engine) newSinkTask(g *shareGroup, h *Handle, in *PageQueue, schema storage.Schema, hint int) *sinkTask {
	sink := &sinkTask{in: in, result: storage.NewBatch(schema, hint)}
	sink.complete = func(res *storage.Batch) {
		err := g.firstError()
		if err == nil {
			// A successful whole-plan-fingerprinted result is a shareable
			// artifact: offer it to the keep-alive cache (no-op without one).
			e.captureResult(h, res)
		}
		g.mu.Lock()
		finalSize := g.size
		g.mu.Unlock()
		e.resolve(h, res, err, finalSize, true)
	}
	return sink
}

// resolve completes h with its result: it records the result, closes out
// the query's telemetry at final group size m, counts the completion — and,
// for a query counted in Active (active), its departure — and runs the
// completion callback.
func (e *Engine) resolve(h *Handle, res *storage.Batch, err error, m int, active bool) {
	h.mu.Lock()
	h.result = res
	h.err = err
	h.completed = time.Now()
	wall := h.completed.Sub(h.submitted)
	h.mu.Unlock()
	e.observeCompletion(h, err, m, wall)
	e.mu.Lock()
	e.n.Completed++
	if active {
		e.n.Active--
		if e.n.Active == 0 && e.drained != nil {
			close(e.drained)
		}
	}
	e.mu.Unlock()
	close(h.done)
	if h.onDone != nil {
		h.onDone(res, err)
	}
}

// sealGroup marks a group started and un-joinable. For submission-time
// groups this fires when the pivot produces its first page; for in-flight
// groups, when the circular scan retires (its last consumer completed).
func (e *Engine) sealGroup(g *shareGroup) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g.mu.Lock()
	first := !g.started
	g.started = true
	size := g.size
	g.mu.Unlock()
	if first && g.trace != nil {
		g.trace.Event("seal", fmt.Sprintf("m=%d", size))
	}
	if e.joinable[g.key] == g {
		delete(e.joinable, g.key)
	}
}

// tableIdentity resolves a scanned table's in-process identity qualifier for
// canonical fingerprints: 0 while the table is the only instance this engine
// has seen under its name — the canonical, cross-process form, so equal
// catalogs in distinct engines still derive equal keys — and the table's
// process-unique ID once the name is already bound to a different instance.
// Qualified keys can never collide with the first instance's groups or
// keep-alive artifacts, even when a drop-and-recreate restarts the epoch at
// 0. The binding is first-sight and permanent for the engine's lifetime
// (one pointer retained per name); engines sharing one artifact cache across
// disagreeing same-named catalogs remain out of scope, exactly as before.
func (e *Engine) tableIdentity(t *storage.Table) uint64 {
	e.identMu.Lock()
	defer e.identMu.Unlock()
	first, ok := e.tableIdent[t.Name]
	if !ok {
		e.tableIdent[t.Name] = t
		return 0
	}
	if first == t {
		return 0
	}
	return t.ID()
}

// rootSchema derives the output schema of the spec's root node by
// instantiating throwaway operators (factories are cheap).
func (e *Engine) rootSchema(spec QuerySpec) (storage.Schema, error) {
	nd := spec.Nodes[len(spec.Nodes)-1]
	nop := func(*storage.Batch) error { return nil }
	switch {
	case nd.IsSource():
		src, err := nd.NewSource()
		if err != nil {
			return storage.Schema{}, err
		}
		return src.Schema(), nil
	case nd.Op != nil:
		op, err := nd.Op(nop)
		if err != nil {
			return storage.Schema{}, err
		}
		return op.OutSchema(), nil
	case nd.Join != nil:
		jn, err := nd.Join(nop)
		if err != nil {
			return storage.Schema{}, err
		}
		return jn.OutSchema(), nil
	default:
		return storage.Schema{}, fmt.Errorf("%w: empty node", ErrBadSpec)
	}
}

// GroupSize reports the current member count of the joinable group matching
// the argument — a subplan share key (exact) or a query signature (0 if
// none). Several groups can share a signature at different pivot levels;
// the largest wins.
func (e *Engine) GroupSize(signatureOrKey string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	best := 0
	measure := func(g *shareGroup) {
		g.mu.Lock()
		if g.size > best {
			best = g.size
		}
		g.mu.Unlock()
	}
	if g := e.joinable[signatureOrKey]; g != nil {
		measure(g)
		return best
	}
	for _, g := range e.joinable {
		if g.signature == signatureOrKey {
			measure(g)
		}
	}
	return best
}

// OpOf adapts a relop unary operator constructor into an OpFactory.
func OpOf(build func(emit relop.Emit) (relop.Operator, error)) OpFactory { return build }
