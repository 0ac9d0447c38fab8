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
	// Workers is the emulated processor count n (required, ≥ 1).
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
	opts  Options
	clock *busyClock
	scans *storage.ScanRegistry
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
	// (see compile.go); compileHits/compileMisses count reuse.
	compiled      map[string]*Compiled
	compileHits   int64
	compileMisses int64
	// tableIdent binds each scanned table name to the first *storage.Table
	// instance this engine saw under it (guarded by identMu, not e.mu —
	// compiles run without the engine lock). Share keys canonicalize scans
	// by name, and names are not an in-process identity: a same-named
	// distinct instance (drop-and-recreate, a second catalog) is qualified
	// by its process-unique ID so its groups and cached artifacts can never
	// cross with the first instance's (see tableIdentity).
	identMu          sync.Mutex
	tableIdent       map[string]*storage.Table
	active           int
	completed        int64
	inflightAttaches int64
	parallelRuns     int64
	parallelClones   int64
	hashBuilds       int64
	buildJoins       int64
	busJoins         int64
	pivotJoins       map[int]int64 // pivot level -> members merged there
	// calibNS is the EWMA of wall-nanoseconds per unit of modeled work u′,
	// learned from queries that ran effectively alone; the audit uses it to
	// turn the model's alone estimate into an expected wall time.
	calibNS float64
}

// New creates and starts an engine emulating opts.Workers processors.
func New(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	sched, err := NewScheduler(opts.Workers)
	if err != nil {
		return nil, err
	}
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
		pivotJoins: make(map[int]int64),
	}
	if opts.SweepInterval > 0 {
		e.StartSweep(opts.SweepInterval, opts.SweepAge)
	}
	if !opts.StartPaused {
		sched.Start()
	}
	return e, nil
}

// Start launches a paused engine's processors. It is idempotent and a no-op
// for engines created running.
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
// periodic sweep (if any) stops. Idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		stop := e.sweepStop
		e.mu.Unlock()
		if stop != nil {
			close(stop)
		}
		e.sched.Stop()
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
		if e.active == 0 {
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

// Workers returns the emulated processor count.
func (e *Engine) Workers() int { return e.opts.Workers }

// Completed returns the number of queries finished since startup.
func (e *Engine) Completed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.completed
}

// BusyTimes returns per-node accumulated busy time (Profile mode only).
func (e *Engine) BusyTimes() map[string]time.Duration { return e.clock.snapshot() }

// Steals returns the number of tasks the scheduler's workers have taken from
// peers' run queues since startup — nonzero steals under load show the
// work-stealing balancer is moving work off hot queues.
func (e *Engine) Steals() int64 { return e.sched.Steals() }

// InflightAttaches returns the number of queries that joined a sharing
// group after its scan had started (in-flight attaches).
func (e *Engine) InflightAttaches() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inflightAttaches
}

// ParallelRuns returns the number of queries executed as partitioned
// clones since startup.
func (e *Engine) ParallelRuns() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallelRuns
}

// ParallelClones returns the total clone pipelines spawned for parallel
// runs since startup (Σ degree over ParallelRuns).
func (e *Engine) ParallelClones() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallelClones
}

// HashBuilds returns the number of shared hash-join builds executed (sealed)
// since startup — one per build-sharing group however many members probed
// the table. Joins executed through the opaque single-query path are not
// counted.
func (e *Engine) HashBuilds() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hashBuilds
}

// BuildJoins returns the number of queries that attached to an existing
// shared hash build (the group's anchor is not counted — it shares with no
// one until someone joins).
func (e *Engine) BuildJoins() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buildJoins
}

// BusJoins returns the number of queries that attached through the shared
// bus to a build state published by another engine — the cross-shard subset
// of BuildJoins. Always zero without Options.Bus.
func (e *Engine) BusJoins() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.busJoins
}

// CacheStats returns the keep-alive cache's counters and footprint (zero
// when the engine runs without a cache).
func (e *Engine) CacheStats() artifact.Stats {
	if e.cache == nil {
		return artifact.Stats{}
	}
	return e.cache.Stats()
}

// CacheHits returns the number of lookups served from a retained artifact —
// each one a late attach (or a whole result) that cost zero rebuild work.
func (e *Engine) CacheHits() int64 { return e.CacheStats().Hits }

// CacheMisses returns the number of cache lookups that found nothing usable
// (absent, expired, or stale).
func (e *Engine) CacheMisses() int64 { return e.CacheStats().Misses }

// CacheEvictions returns the number of retained artifacts dropped for
// memory pressure.
func (e *Engine) CacheEvictions() int64 { return e.CacheStats().Evictions }

// CacheBytes returns the cache's current retained footprint. It never
// exceeds the cache's byte budget.
func (e *Engine) CacheBytes() int64 { return e.CacheStats().Bytes }

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

// Active returns the number of submitted queries not yet completed.
func (e *Engine) Active() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active
}

// ScanRegistry exposes the engine's work-exchange registry — circular
// scans, partitioned scans, and shared subplan outlets — for monitoring.
func (e *Engine) ScanRegistry() *storage.Exchange { return e.scans }

// Exchange is ScanRegistry under the registry's unified name.
func (e *Engine) Exchange() *storage.Exchange { return e.scans }

// PivotLevelJoins returns, per pivot node level, how many queries merged
// into a sharing group anchored at that level (submission-time joins plus
// in-flight attaches; group anchors are not counted — they share with no
// one until someone joins).
func (e *Engine) PivotLevelJoins() map[int]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]int64, len(e.pivotJoins))
	for k, v := range e.pivotJoins {
		out[k] = v
	}
	return out
}

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
	// Serve the query outright when a fingerprint-matching result run at
	// the current epoch is retained — the across-burst analogue of joining
	// a group whose pivot is the root, so it passes the same admission test
	// as a size-2 group.
	if h.resultKey != "" && e.admitSharedLocked(policy, h.resultModel, 2, spec.CanParallel()) {
		if res, ok := e.lookupCachedResult(h); ok {
			z, sp := e.shareBenefit(h.resultModel, 2)
			e.stampDecision(h, "cache-result", len(spec.Nodes)-1, 2, h.resultModel, z, sp)
			emitDecision(h, "serve", "cached result run")
			e.serveResult(h, res)
			return h, nil
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
			if opt.Build {
				// Build-side candidate: the joinable entry is a shared hash
				// build (pure or published by a mixed group); members attach
				// to the table — before or after it seals — and run
				// everything outside the build subtree privately.
				key := cp.keys[j]
				g := e.joinable[key]
				if g != nil && g.build != nil && g.build.state.Retired() {
					// The table's last prober released it (or the sweep
					// reclaimed a wedged build); prune the stale entry. The
					// retired table may live on in the keep-alive cache,
					// where the consult below finds it.
					delete(e.joinable, key)
					g = nil
				}
				if g == nil || g.build == nil {
					// No live local group at this level. On a shared bus the
					// build may be live on another engine — in flight or
					// sealed but not yet retired; attaching is sharing with
					// that engine's group, so it passes the usual admission
					// test with m counting the state's cluster-wide probers.
					// A successful attach anchors a local foreign share the
					// rest of this shard's burst then joins like any build
					// group.
					if e.opts.Bus != nil {
						if st := e.scans.LookupBuildState(key); st != nil &&
							e.admitSharedLocked(policy, opt.Model, st.Refs()+1, spec.CanParallel()) {
							z, sp := e.buildBenefit(opt.Model, st.Refs()+1)
							e.stampDecision(h, "bus-share", opt.Pivot, st.Refs()+1, opt.Model, z, sp)
							ng, err := e.newBusBuildGroupLocked(spec, opt, h, st, cp)
							if err != nil {
								return nil, err
							}
							if ng != nil {
								ng.trace = h.trace
								emitDecision(h, "attach", "bus build state")
								e.joinable[ng.key] = ng
								e.buildJoins++
								e.busJoins++
								e.pivotJoins[opt.Pivot]++
								e.active++
								return h, nil
							}
							// The state retired between the lookup and the
							// attach; fall through to the cache consult.
						}
					}
					// Consult the keep-alive cache before giving up on this
					// level, under the same admission test as joining a
					// size-2 group (attaching to retained work is sharing
					// with the departed group that produced it). A hit
					// anchors a cache-served group — the table is already
					// sealed, the build subtree never runs, and this query
					// registers as a late attach with zero build work —
					// which the rest of the burst then joins like any build
					// group.
					if e.admitSharedLocked(policy, opt.Model, 2, spec.CanParallel()) {
						epoch := cp.epochs[j]
						if tbl, ok := e.lookupCachedTable(key, epoch); ok {
							z, sp := e.buildBenefit(opt.Model, 2)
							e.stampDecision(h, "cache-build", opt.Pivot, 2, opt.Model, z, sp)
							ng, err := e.newCachedBuildGroupLocked(spec, opt, h, tbl, epoch, cp)
							if err != nil {
								return nil, err
							}
							ng.trace = h.trace
							emitDecision(h, "anchor", "cache-served build")
							e.joinable[ng.key] = ng
							e.buildJoins++
							e.pivotJoins[opt.Pivot]++
							e.active++
							return h, nil
						}
					}
					continue
				}
				mspec := spec
				mspec.Pivot = opt.Pivot
				mspec.Model = opt.Model
				g.mu.Lock()
				m := g.size + 1
				g.mu.Unlock()
				if e.admitSharedLocked(policy, mspec.Model, m, spec.CanParallel()) {
					z, sp := e.buildBenefit(mspec.Model, m)
					e.stampDecision(h, "build-share", opt.Pivot, m, mspec.Model, z, sp)
					attached, err := e.attachBuildLocked(g, mspec, h, cp)
					if err != nil {
						return nil, err
					}
					if attached {
						emitDecision(h, "attach", "shared hash build")
						e.buildJoins++
						e.pivotJoins[opt.Pivot]++
						e.active++
						return h, nil
					}
					// The table retired between the lookup and the attach;
					// fall through to the remaining candidates.
				}
				continue
			}
			g := e.joinable[cp.keys[j]]
			if g == nil {
				continue
			}
			// The member's view of the spec at this group's level: the
			// private chain starts above opt.Pivot and the model carries the
			// coefficients compiled there.
			mspec := spec
			mspec.Pivot = opt.Pivot
			mspec.Model = opt.Model
			switch {
			case g.inflight != nil:
				// In-flight group: members attach to the circular scan at
				// its current cursor, whether or not the pivot has emitted.
				// g.firstError guards the window between a member failing
				// and its abort closing the scan: an arrival there must not
				// inherit the doomed group's error.
				if ap, ok := policy.(AttachPolicy); ok && g.firstError() == nil {
					remaining, active, live := g.inflight.scan.Remaining()
					admit := func() bool {
						if lap, ok := policy.(LoadAwarePolicy); ok {
							return lap.ShouldAttachUnderLoad(mspec.Model, active+1, remaining, e.active+1, spec.CanParallel())
						}
						return ap.ShouldAttach(mspec.Model, active+1, remaining)
					}
					if live && admit() {
						z, sp := e.shareBenefit(core.AttachAdjusted(mspec.Model, active+1, remaining), active+1)
						e.stampDecision(h, "attach", opt.Pivot, active+1, mspec.Model, z, sp)
						attached, err := e.attachInflightLocked(g, mspec, h, cp)
						if err != nil {
							return nil, err
						}
						if attached {
							emitDecision(h, "attach", fmt.Sprintf("inflight scan remaining=%.2f", remaining))
							e.inflightAttaches++
							e.pivotJoins[opt.Pivot]++
							e.active++
							return h, nil
						}
						// The scan finished between the consult and the
						// attach; fall through to a fresh group.
					}
				}
			default:
				g.mu.Lock()
				started := g.started
				m := g.size + 1
				g.mu.Unlock()
				if !started && e.admitSharedLocked(policy, mspec.Model, m, spec.CanParallel()) {
					z, sp := e.shareBenefit(mspec.Model, m)
					e.stampDecision(h, "share", opt.Pivot, m, mspec.Model, z, sp)
					if err := e.attachLocked(g, mspec, h, cp); err != nil {
						return nil, err
					}
					emitDecision(h, "attach", "pivot group")
					e.pivotJoins[opt.Pivot]++
					e.active++
					return h, nil
				}
			}
		}
	}
	// Not sharing. The share-vs-parallelize decision: an explicit spec
	// degree wins, else a ParallelPolicy chooses one under the current load;
	// degree > 1 on a parallelizable plan runs partitioned clones instead of
	// the serial pipeline. Parallel runs are never joinable — they are the
	// unshared alternative the model weighs sharing against.
	if d := e.parallelDegreeLocked(spec, policy); d > 1 {
		e.stampDecision(h, "parallel", spec.Pivot, d, spec.Model, 0,
			core.ParallelSpeedup(spec.Model, d, e.env))
		if err := e.newParallelGroupLocked(spec, h, d, cp); err != nil {
			return nil, err
		}
		emitDecision(h, "anchor", fmt.Sprintf("partitioned clones d=%d", d))
		e.parallelRuns++
		e.parallelClones += int64(d)
		e.active++
		return h, nil
	}
	// Fresh group. When the spec offers several pivot levels, a
	// pivot-selecting policy chooses where to anchor it — possibly at a
	// build-side candidate, making the fresh group a pure build group;
	// otherwise the declared pivot stands.
	gspec := spec
	anchorBuild := PivotOption{Pivot: -1}
	if policy != nil && len(spec.Pivots) > 0 {
		if pp, ok := policy.(PivotPolicy); ok {
			opts := cp.opts
			cands := make([]core.Query, len(opts))
			for i := range opts {
				cands[i] = cp.optModel(spec, i)
			}
			if i := pp.ChoosePivot(cands, e.active+1); i >= 0 && i < len(opts) {
				if opts[i].Build {
					anchorBuild = opts[i]
					anchorBuild.Model = cands[i]
				} else {
					gspec.Pivot = opts[i].Pivot
					gspec.Model = cands[i]
				}
			}
		}
	}
	if anchorBuild.Pivot >= 0 {
		// An anchor runs alone until someone joins: predicted speedup 1, with
		// the prospective margin for the next joiner recorded as Z.
		z, _ := e.buildBenefit(anchorBuild.Model, 2)
		e.stampDecision(h, "anchor", anchorBuild.Pivot, 1, anchorBuild.Model, z, 1)
		g, err := e.newBuildGroupLocked(gspec, anchorBuild, h, cp)
		if err != nil {
			return nil, err
		}
		g.trace = h.trace
		emitDecision(h, "anchor", "build group")
		e.joinable[g.key] = g
		e.active++
		return h, nil
	}
	if policy != nil {
		z, _ := e.shareBenefit(gspec.Model, 2)
		e.stampDecision(h, "anchor", gspec.Pivot, 1, gspec.Model, z, 1)
	} else {
		e.stampDecision(h, "alone", gspec.Pivot, 1, gspec.Model, 0, 1)
	}
	g, err := e.newGroupLocked(gspec, h, policy, cp)
	if err != nil {
		return nil, err
	}
	g.trace = h.trace
	if policy != nil {
		emitDecision(h, "anchor", "pivot group")
		e.joinable[g.key] = g
		if g.build != nil {
			// A mixed group is additionally joinable at its build subtree.
			e.joinable[g.buildKey] = g
		}
	} else {
		emitDecision(h, "anchor", "unshared run")
	}
	e.active++
	return h, nil
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
		return lap.ShouldJoinUnderLoad(model, m, e.active+1, canParallel)
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
			d = pp.Degree(spec.Model, e.active+1)
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
// group) — served from the keep-alive cache when the policy admits retained
// work and a fingerprint-matching table is live at the current epoch.
func (e *Engine) newGroupLocked(spec QuerySpec, h *Handle, policy SharePolicy, cp *Compiled) (*shareGroup, error) {
	joinable := policy != nil
	if e.opts.InflightSharing && joinable && spec.Nodes[spec.Pivot].Scan != nil {
		return e.newInflightGroupLocked(spec, h, cp)
	}
	g := &shareGroup{signature: spec.Signature, key: cp.shareKeyAt(spec.Pivot), spec: spec, size: 1}
	pivotOut := &outbox{fanOut: e.opts.FanOut}
	pivotOut.onFirstEmit = func() { e.sealGroup(g) }
	g.pivot = pivotOut
	if joinable {
		// Mirror the shared pipeline in the work-exchange registry: monitors
		// see subplan outlets next to circular and partitioned scans, and
		// the outlet retires when the pivot's output stream ends.
		g.outlet = e.scans.PublishOutlet(g.key)
		g.outlet.Attach()
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
	// the build even when they cannot match the anchor level. When the
	// keep-alive cache retains a fingerprint-matching table at the current
	// epoch, the group's own build is served from it instead: the share
	// starts sealed, cachedBuild masks the build-subtree nodes that never
	// spawn, and the anchor registers as a late attach with zero build work.
	splitJoin := -1
	var bs *buildShare
	var cachedBuild []bool
	if joinable {
		if opt, joinIdx, ok := buildOptionWithin(spec, spec.Pivot); ok {
			splitJoin = joinIdx
			var epoch uint64
			var tbl *relop.HashTable
			hit := false
			if e.cache != nil {
				epoch = cp.epochAtNode(opt.Pivot)
				if e.admitSharedLocked(policy, opt.Model, 2, spec.CanParallel()) {
					tbl, hit = e.lookupCachedTable(cp.buildKeyAt(opt.Pivot), epoch)
				}
			}
			bs = e.newBuildShareLocked(g, cp.buildKeyAt(opt.Pivot), opt, epoch)
			if hit {
				bs.sealCached(tbl)
				cachedBuild = spec.SubtreeMask(opt.Pivot)
				e.buildJoins++
				e.pivotJoins[opt.Pivot]++
			}
			// A member failure poisons the whole group (its error reaches
			// every sink), so stop recruiting into it on either key: retire
			// the build state and seal the group. Without this a mixed
			// group's sealed, still-referenced state would keep admitting
			// fingerprint-matching queries into the stale failure — and a
			// wedged dead chain would make it unsweepable too.
			g.onFail = func() {
				bs.failShare()
				e.sealGroup(g)
			}
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

	// Fuse the shared part into segments; each segment's boundary (its tail
	// node) gets the outbox — the pivot's fan-out for the pivot segment, a
	// single-consumer outbox over one queue otherwise. Interior nodes of a
	// fused segment have no queue at all.
	mask := spec.SubtreeMask(spec.Pivot)
	include := func(i int) bool {
		return mask[i] && !(cachedBuild != nil && cachedBuild[i])
	}
	runs, _ := fuseRuns(spec, include, e.fuseOK())
	outs := make([]*outbox, len(spec.Nodes))
	queues := make([]*PageQueue, len(spec.Nodes))
	for _, r := range runs {
		tl := r.tail()
		if tl == spec.Pivot {
			outs[tl] = pivotOut
			continue
		}
		q := NewPageQueue(e.sched, spec.Nodes[tl].Name, e.opts.QueueCap)
		queues[tl] = q
		outs[tl] = &outbox{outs: []*PageQueue{q}}
	}
	// Wire the first member's private part before spawning anything so the
	// pivot has a consumer from the start.
	if err := e.attachChain(g, spec, h, cp); err != nil {
		return nil, err
	}
	// Instantiate and spawn shared tasks, one per segment. Build-subtree
	// nodes served from the cache never spawn — their work is the rebuild
	// the retained table saves.
	qOf := func(idx int) *PageQueue { return queues[idx] }
	for _, r := range runs {
		nd := spec.Nodes[r.head]
		if nd.Join != nil && r.head == splitJoin {
			// The split form: a collector builds the shared table once
			// (skipped when the table came from the cache); one shared
			// probe streams the group's probe side against it — through the
			// segment's fused chain — into the usual fan-out. The group
			// holds the probe's reference.
			if !bs.attachProber() {
				return nil, fmt.Errorf("%w: fresh build state rejected attach", ErrBadSpec)
			}
			ob := outs[r.tail()]
			pr, err := fusedProbeOp(spec.Nodes, nd, r, ob)
			if err != nil {
				return nil, err
			}
			if cachedBuild == nil {
				jb, err := nd.Build()
				if err != nil {
					return nil, err
				}
				collector := &buildCollectorTask{name: nd.Name + "/build", jb: jb, in: queues[nd.BuildInput], bs: bs, clock: e.clock, fail: g.fail}
				e.sched.Spawn(collector.name, collector.step)
			}
			pname := fusedName(spec.Nodes, r)
			prober := &probeAttachTask{name: pname, bs: bs, ready: bs.newWaiter(e.sched, nd.Name), probe: pr, in: queues[nd.ProbeInput], out: ob, clock: e.clock, fail: g.fail}
			e.sched.Spawn(pname, prober.step)
			continue
		}
		name, step, err := e.fusedTask(spec, r, qOf, outs[r.tail()], g.fail)
		if err != nil {
			return nil, err
		}
		e.sched.Spawn(name, step)
	}
	built = true
	return g, nil
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

// newBuildShareLocked publishes a build state for the subtree of spec rooted
// at the candidate pivot and wires it to group g. The state's seal bumps the
// engine's executed-build counter; a retired state (last prober released,
// failure, or sweep) is pruned from the joinable map lazily — at the next
// probe of its key or the next SweepExchange — so retirement never needs
// e.mu. With a keep-alive cache the state's retire hand-off offers the
// sealed table for retention: epoch is the source tables' invalidation
// epoch the artifact was (or will be) built at, and opt.Model — compiled at
// the build pivot — prices the rebuild a future hit would save. key is the
// build-state share key of the subtree at opt.Pivot (already canonicalized
// by the caller's compile artifact). Caller holds e.mu.
func (e *Engine) newBuildShareLocked(g *shareGroup, key string, opt PivotOption, epoch uint64) *buildShare {
	bs := &buildShare{key: key, pivot: opt.Pivot, state: e.scans.PublishBuildState(key), recycle: e.cache == nil}
	bs.onSeal = func() {
		e.mu.Lock()
		e.hashBuilds++
		e.mu.Unlock()
	}
	if e.cache != nil {
		cache, model := e.cache, opt.Model
		bs.state.SetHandoff(func(v any) {
			if tbl, ok := v.(*relop.HashTable); ok {
				cache.Put(key, tbl, tbl.FootprintBytes(), model, epoch)
			}
		})
	}
	g.build = bs
	g.buildKey = key
	return bs
}

// newBuildGroupLocked instantiates a pure build group anchored at a
// build-side pivot candidate: the shared part is the build subtree plus the
// collector that seals the hash table; every member — the anchor included —
// attaches a private probe phase to the table and runs everything outside
// the build subtree itself. The group stays joinable until the last prober
// releases the table (or the build fails, or the sweep retires a wedged
// build). Caller holds e.mu.
func (e *Engine) newBuildGroupLocked(spec QuerySpec, opt PivotOption, h *Handle, cp *Compiled) (*shareGroup, error) {
	gspec := spec
	gspec.Pivot = opt.Pivot
	gspec.Model = opt.Model
	g := &shareGroup{signature: spec.Signature, spec: gspec, size: 1}
	bs := e.newBuildShareLocked(g, cp.buildKeyAt(opt.Pivot), opt, cp.epochAtNode(opt.Pivot))
	g.key = g.buildKey
	g.onFail = func() {
		bs.failShare()
		e.sealGroup(g)
	}

	// A construction error below must not strand the published state (or a
	// half-wired first member): abort so waiters fail fast and the exchange
	// entry retires.
	built := false
	defer func() {
		if !built {
			bs.failShare()
		}
	}()

	// First member (probe side and above), wired before the build spawns.
	if !bs.attachProber() {
		return nil, fmt.Errorf("%w: fresh build state rejected attach", ErrBadSpec)
	}
	_, start, err := e.buildMember(g, gspec, h, bs, cp)
	if err != nil {
		bs.releaseProber()
		return nil, err
	}
	start()

	// Shared part: the build subtree feeding the collector, fused into
	// segments. The subtree root (the build pivot) always ends a segment —
	// its consumer is the collector, a task boundary — so queues[opt.Pivot]
	// exists whether or not fusion collapsed the nodes below it.
	mask := gspec.SubtreeMask(opt.Pivot)
	joinIdx := gspec.pivotConsumer(opt.Pivot)
	jb, err := gspec.Nodes[joinIdx].Build()
	if err != nil {
		return nil, err
	}
	include := func(i int) bool { return mask[i] }
	runs, _ := fuseRuns(gspec, include, e.fuseOK())
	outs := make([]*outbox, len(gspec.Nodes))
	queues := make([]*PageQueue, len(gspec.Nodes))
	for _, r := range runs {
		tl := r.tail()
		q := NewPageQueue(e.sched, gspec.Nodes[tl].Name, e.opts.QueueCap)
		queues[tl] = q
		outs[tl] = &outbox{outs: []*PageQueue{q}}
	}
	type pendingSpawn struct {
		name string
		step func(*Task) Status
	}
	var spawns []pendingSpawn
	qOf := func(idx int) *PageQueue { return queues[idx] }
	for _, r := range runs {
		name, step, err := e.fusedTask(gspec, r, qOf, outs[r.tail()], g.fail)
		if err != nil {
			return nil, err
		}
		spawns = append(spawns, pendingSpawn{name, step})
	}
	collector := &buildCollectorTask{name: gspec.Nodes[joinIdx].Name + "/build", jb: jb, in: queues[opt.Pivot], bs: bs, clock: e.clock, fail: g.fail}
	for _, p := range spawns {
		e.sched.Spawn(p.name, p.step)
	}
	e.sched.Spawn(collector.name, collector.step)
	built = true
	return g, nil
}

// attachBuildLocked adds a member to a group's shared hash build. It returns
// false (without error) when the table retired concurrently — the caller
// then proceeds to other candidates or a fresh group. Caller holds e.mu.
func (e *Engine) attachBuildLocked(g *shareGroup, spec QuerySpec, h *Handle, cp *Compiled) (bool, error) {
	bs := g.build
	if !bs.attachProber() {
		return false, nil
	}
	_, start, err := e.buildMember(g, spec, h, bs, cp)
	if err != nil {
		bs.releaseProber()
		return false, err
	}
	g.mu.Lock()
	g.size++
	g.mu.Unlock()
	start()
	return true, nil
}

// newInflightGroupLocked instantiates a group whose pivot is a declared
// scan shared through the circular scan registry. The pivot never seals the
// group; it stays joinable until the scan's last consumer completes. Caller
// holds e.mu.
func (e *Engine) newInflightGroupLocked(spec QuerySpec, h *Handle, cp *Compiled) (*shareGroup, error) {
	g := &shareGroup{signature: spec.Signature, key: cp.shareKeyAt(spec.Pivot), spec: spec, size: 1}
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
	in, start, err := e.buildMember(g, spec, h, nil, cp)
	if err != nil {
		return nil, err
	}
	if !fs.attach(in) {
		// Unreachable: a freshly published scan cannot be closed.
		return nil, fmt.Errorf("%w: fresh circular scan rejected attach", ErrBadSpec)
	}
	start()
	e.sched.Spawn(nd.Name, fs.step)
	return g, nil
}

// attachLocked adds a member to an existing, not-yet-started group. Caller
// holds e.mu; group non-started status is stable because sealGroup also
// takes e.mu.
func (e *Engine) attachLocked(g *shareGroup, spec QuerySpec, h *Handle, cp *Compiled) error {
	if err := e.attachChain(g, spec, h, cp); err != nil {
		return err
	}
	g.mu.Lock()
	g.size++
	g.mu.Unlock()
	if g.outlet != nil {
		g.outlet.Attach()
	}
	return nil
}

// attachInflightLocked adds a member to a group whose scan is in progress.
// It returns false (without error) when the scan completed concurrently —
// the caller then starts a fresh group for the query. Caller holds e.mu.
func (e *Engine) attachInflightLocked(g *shareGroup, spec QuerySpec, h *Handle, cp *Compiled) (bool, error) {
	in, start, err := e.buildMember(g, spec, h, nil, cp)
	if err != nil {
		return false, err
	}
	if !g.inflight.attach(in) {
		// Nothing was spawned yet; the unstarted chain is garbage collected.
		return false, nil
	}
	g.mu.Lock()
	g.size++
	g.mu.Unlock()
	start()
	return true, nil
}

// attachChain wires one member's private part (every node outside the
// pivot's subtree, plus the sink) to the group's pivot outbox.
func (e *Engine) attachChain(g *shareGroup, spec QuerySpec, h *Handle, cp *Compiled) error {
	in, start, err := e.buildMember(g, spec, h, nil, cp)
	if err != nil {
		return err
	}
	// The pivot gains its consumer before any task that could feed it runs
	// (for new groups) or while the group is provably unstarted (joins).
	g.pivot.attach(in)
	start()
	return nil
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
	type pendingSpawn struct {
		name string
		step func(*Task) Status
	}
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
		h.mu.Lock()
		h.result = res
		h.err = err
		h.completed = time.Now()
		wall := h.completed.Sub(h.submitted)
		h.mu.Unlock()
		g.mu.Lock()
		finalSize := g.size
		g.mu.Unlock()
		e.observeCompletion(h, err, finalSize, wall)
		e.mu.Lock()
		e.completed++
		e.active--
		if e.active == 0 && e.drained != nil {
			close(e.drained)
		}
		e.mu.Unlock()
		close(h.done)
		if h.onDone != nil {
			h.onDone(res, err)
		}
	}
	return sink
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
