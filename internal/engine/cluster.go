package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// This file implements partitioned multi-instance execution: a Cluster of
// engine shards over range-partitioned tables, scatter-gather plans compiled
// from a single-engine template, and the submit-path half of the cross-shard
// artifact bus (the shared storage.Exchange wired through Options.Bus).
//
// The decomposition mirrors the single-engine parallel path (parallel.go):
// where that path clones one plan across partitions of a scan inside one
// engine, CompileScatter clones a whole plan across shards — each shard runs
// the root's Partial form over its partition of the data, and the cluster's
// gather stage runs the one Merge the clone fan-in would have run. What is
// new is the boundary the clones cross: each shard is a data partition with
// its own Engine state — sharing groups, compile memo, bus attachments — so
// every shard-local work-sharing mechanism (fan-out groups, circular scans,
// build shares, the keep-alive cache) keeps operating on the scattered
// fragments, and the shared bus extends build-side sharing across the shards
// themselves: a shard that finds another shard's build state on the bus
// anchors a local build group over it (newBuildGroupLocked with a foreign
// origin), whose members park until the owner seals and then probe the one
// table. A shard is not a worker pool: every shard's tasks run on the
// cluster's one Scheduler, so a worker with nothing of one shard's to run
// steals another shard's work (morsel-driven scheduling), and the k×Workers
// processors the admission model prices are one pool in fact.

// ShardPlan is one query compiled for scatter-gather execution: the original
// single-engine form (the template), one partial-form spec per shard, and the
// merge operator the gather stage runs over the shards' partial results. A
// plan whose Shards is empty (a 1-shard compile, or a family that cannot
// decompose) always routes whole to a single shard.
type ShardPlan struct {
	// Template is the single-engine form, routed whole to one shard when the
	// cluster decides not to scatter.
	Template QuerySpec
	// Shards are the per-shard partial forms (index i runs on shard i).
	Shards []QuerySpec
	// Merge creates the fan-in operator combining the shards' partial outputs
	// into exactly what Template's root would have emitted.
	Merge OpFactory
	// Gather is the routing model the cluster prices scatter against: the
	// template's total work u' with PivotS set to the cost of handing one
	// shard's ROOT output to the coordinator — the root-level pivot option's
	// s when the template declares one, else the template model's own s. The
	// anchor-level s (a scan's page stream) can be orders of magnitude larger
	// than the root's (a page of aggregate rows) and would wrongly veto
	// scattering scan-heavy plans.
	Gather core.Query
}

// CompileScatter compiles a single-engine template into its scatter-gather
// form over the given shard count. The template's root must declare the
// Partial/Merge pair (the same contract partitioned clone execution uses):
// shard i runs a copy of the plan whose root is the Partial form and whose
// scans are remapped through remap(i, table) — return the shard's partition
// for partitioned tables, or the table itself (or nil) for replicated ones.
//
// Each shard spec's identity is qualified so shard work never collides with
// template work or with another shard's:
//
//   - the root fingerprint gains a "|partial" namespace — a shard's partial
//     result is a different artifact than the template's final result, and
//     must never serve a result-cache lookup for it;
//   - the Signature and PlanKey gain an "@s<i>/<n>" qualifier, so per-shard
//     compile artifacts and sharing groups are tracked per shard;
//   - remapped scans fingerprint over the partition's qualified name
//     (storage.PartitionName), keeping shard-local artifacts distinct on a
//     shared bus, while unmapped (replicated) subtrees canonicalize
//     identically on every shard — exactly the subplans the bus may share
//     cluster-wide.
//
// shards == 1 returns a route-whole plan (Shards empty): a one-shard cluster
// runs templates unmodified under their canonical identity.
func CompileScatter(template QuerySpec, shards int, remap func(shard int, tbl *storage.Table) *storage.Table) (ShardPlan, error) {
	if err := template.Validate(); err != nil {
		return ShardPlan{}, err
	}
	if shards < 1 {
		return ShardPlan{}, fmt.Errorf("%w: scatter over %d shards", ErrBadSpec, shards)
	}
	if shards == 1 {
		return ShardPlan{Template: template}, nil
	}
	root := len(template.Nodes) - 1
	if template.Nodes[root].Partial == nil || template.Nodes[root].Merge == nil {
		return ShardPlan{}, fmt.Errorf("%w: %s: root %s lacks the Partial/Merge pair scatter-gather needs",
			ErrBadSpec, template.Signature, template.Nodes[root].Name)
	}
	plan := ShardPlan{Template: template, Merge: template.Nodes[root].Merge, Gather: template.Model}
	for _, opt := range template.Pivots {
		if opt.Pivot == root && !opt.Build {
			plan.Gather.PivotS = opt.Model.PivotS
			break
		}
	}
	for s := 0; s < shards; s++ {
		spec := template
		spec.Nodes = append([]NodeSpec(nil), template.Nodes...)
		if remap != nil {
			for i := range spec.Nodes {
				sc := spec.Nodes[i].Scan
				if sc == nil {
					continue
				}
				if nt := remap(s, sc.Table); nt != nil && nt != sc.Table {
					resc := *sc
					resc.Table = nt
					spec.Nodes[i].Scan = &resc
				}
			}
		}
		nd := spec.Nodes[root]
		nd.Op = nd.Partial
		nd.Partial, nd.Merge = nil, nil
		nd.Fingerprint += "|partial"
		spec.Nodes[root] = nd
		q := fmt.Sprintf("@s%d/%d", s, shards)
		spec.Signature += q
		if spec.PlanKey != "" {
			spec.PlanKey += q
		}
		// The partial form is not clone-parallelizable (its root lost the
		// Partial/Merge pair); intra-shard parallelism is the shard policy's
		// call, never an inherited degree.
		spec.Parallel = 0
		plan.Shards = append(plan.Shards, spec)
	}
	return plan, nil
}

// Cluster is a set of engine shards — data partitions — sharing one worker
// pool and a cross-shard artifact bus: one storage.Exchange every shard
// publishes to and discovers through, so a hash table built on any shard
// serves probers on all of them, plus (when the options carry one) one
// keep-alive cache. A one-shard cluster is a plain engine behind the
// cluster API: plans route whole to it. Submit routes each ShardPlan
// either whole to a single shard (small queries, round-robin) or scattered —
// every shard runs its partial form and a gather stage merges the partials in
// shard-index order, so scattered results are deterministic for a fixed shard
// count.
type Cluster struct {
	shards []*Engine
	// sched is the pool every shard's tasks run on; Start and Close start
	// and stop it, once for the whole cluster.
	sched *Scheduler

	// gathers tracks in-flight gather completions so Drain covers the window
	// between the last shard's sink and the merged result's delivery.
	gathers sync.WaitGroup

	mu       sync.Mutex
	rr       int // round-robin cursor for route-whole submissions
	scatters int64
	routed   int64
	finished int64
}

// NewCluster creates n engine shards over a shared artifact bus, all running
// on one pool of n×opts.Workers workers (started unless opts.StartPaused).
// Each shard is configured from opts with the bus wired in; opts.Bus, when
// set, is used as the cluster's bus (letting tests observe it), otherwise a
// fresh exchange is created. A lone shard has no peer to share a bus with:
// unless opts.Bus is set it keeps a private exchange, exactly as New's
// engine does. Only shard 0 keeps the periodic sweep — one sweeper per bus,
// not one per shard, so sweep cadence does not scale with the shard count.
func NewCluster(n int, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: cluster of %d shards", n)
	}
	sched, err := NewScheduler(n * opts.Workers)
	if err != nil {
		return nil, err
	}
	if opts.Bus == nil && n > 1 {
		opts.Bus = storage.NewExchange()
	}
	c := &Cluster{sched: sched}
	for i := 0; i < n; i++ {
		o := opts
		if i > 0 {
			o.SweepInterval = 0
		}
		c.shards = append(c.shards, newEngine(o, sched))
	}
	if !opts.StartPaused {
		sched.Start()
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i's engine (for per-shard stats and direct submission).
func (c *Cluster) Shard(i int) *Engine { return c.shards[i] }

// Start launches a paused cluster's pool (no-op for a cluster created
// running).
func (c *Cluster) Start() { c.sched.Start() }

// Drain stops admission on every shard and blocks until all in-flight
// queries — including scattered ones awaiting their gather — have completed.
func (c *Cluster) Drain() {
	for _, e := range c.shards {
		e.Drain()
	}
	c.gathers.Wait()
}

// Close shuts every shard down, then stops the pool. Idempotent.
func (c *Cluster) Close() {
	for _, e := range c.shards {
		e.Close()
	}
	c.sched.Stop()
}

// Submit routes one ShardPlan: see SubmitFn.
func (c *Cluster) Submit(plan ShardPlan, policy SharePolicy) (*Handle, error) {
	return c.SubmitFn(plan, policy, nil)
}

// SubmitFn submits one ShardPlan with a completion callback. Plans without
// shard forms route whole to one shard (round-robin). Plans with shard forms
// consult the gather-cost model when the template carries one — a query whose
// per-shard saving does not cover the gather term runs whole — and otherwise
// scatter: every shard runs its partial form under the cluster's policy
// (shard-local sharing and the cross-shard bus both apply), and a gather
// stage merges the partial results in shard-index order into the handle's
// result. The callback runs once, with the merged result, after the handle
// resolves.
func (c *Cluster) SubmitFn(plan ShardPlan, policy SharePolicy, onDone func(*storage.Batch, error)) (*Handle, error) {
	k := len(plan.Shards)
	if k != 0 && k != len(c.shards) {
		return nil, fmt.Errorf("%w: %s: plan compiled for %d shards, cluster has %d",
			ErrBadSpec, plan.Template.Signature, k, len(c.shards))
	}
	scatter := k > 1
	gq := plan.Gather
	if gq.UPrime() == 0 {
		gq = plan.Template.Model
	}
	if scatter && gq.UPrime() > 0 && !core.ShouldScatter(gq, k) {
		scatter = false
	}
	if !scatter {
		return c.routeWhole(plan.Template, policy, onDone)
	}
	if plan.Merge == nil {
		return nil, fmt.Errorf("%w: %s: scatter plan without a merge factory", ErrBadSpec, plan.Template.Signature)
	}

	h := &Handle{name: plan.Template.Signature, done: make(chan struct{}), onDone: onDone, submitted: time.Now()}
	// Cluster-level lifecycle tracing rides on shard 0's ring: the coordinator
	// has no engine of its own, and shard 0 always exists. Shard submissions
	// below begin their own per-shard traces as usual.
	coord := c.shards[0]
	h.trace = coord.tracer.Begin(plan.Template.Signature)
	h.trace.Event("submit", fmt.Sprintf("scatter-gather over %d shards", k))
	coord.stampDecision(h, "scatter", len(plan.Template.Nodes)-1, k, gq, 0, core.ShardSpeedup(gq, k))
	emitDecision(h, "scatter", fmt.Sprintf("k=%d partial forms", k))
	n := len(plan.Shards)
	results := make([]*storage.Batch, n)
	errs := make([]error, n)
	var pending atomic.Int32
	pending.Store(int32(n))
	c.gathers.Add(1)
	c.mu.Lock()
	c.scatters++
	c.mu.Unlock()
	finish := func() {
		defer c.gathers.Done()
		var err error
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
		var out *storage.Batch
		if err == nil {
			out, err = gatherPartials(plan, results)
		}
		c.mu.Lock()
		c.finished++
		c.mu.Unlock()
		h.mu.Lock()
		h.result = out
		h.err = err
		h.completed = time.Now()
		wall := h.completed.Sub(h.submitted)
		h.mu.Unlock()
		h.trace.Event("gather", fmt.Sprintf("merged %d partials", n))
		coord.observeCompletion(h, err, n, wall)
		close(h.done)
		if h.onDone != nil {
			h.onDone(out, err)
		}
	}
	for i := range plan.Shards {
		i := i
		_, err := c.shards[i].SubmitFn(plan.Shards[i], policy, func(b *storage.Batch, err error) {
			results[i], errs[i] = b, err
			if pending.Add(-1) == 0 {
				// The gather runs off the engine worker that delivered the last
				// partial: merging is coordinator work, not shard work.
				go finish()
			}
		})
		if err != nil {
			// This shard never ran; record the failure and count it down so
			// the shards already submitted still gather (into the error).
			errs[i] = err
			if pending.Add(-1) == 0 {
				go finish()
			}
		}
	}
	return h, nil
}

// routeWhole submits the template unmodified to one shard, round-robin.
func (c *Cluster) routeWhole(spec QuerySpec, policy SharePolicy, onDone func(*storage.Batch, error)) (*Handle, error) {
	c.mu.Lock()
	e := c.shards[c.rr%len(c.shards)]
	c.rr++
	c.routed++
	c.mu.Unlock()
	h, err := e.SubmitFn(spec, policy, func(b *storage.Batch, err error) {
		c.mu.Lock()
		c.finished++
		c.mu.Unlock()
		if onDone != nil {
			onDone(b, err)
		}
	})
	return h, err
}

// gatherPartials runs the plan's merge operator over the shards' partial
// results in shard-index order — a deterministic fold, so a scattered query's
// output is byte-stable for a fixed shard count — and returns the merged
// batch under the merge operator's schema.
func gatherPartials(plan ShardPlan, parts []*storage.Batch) (*storage.Batch, error) {
	var pages []*storage.Batch
	op, err := plan.Merge(func(b *storage.Batch) error {
		pages = append(pages, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		if p == nil || p.Len() == 0 {
			continue
		}
		if err := op.Push(p); err != nil {
			return nil, err
		}
	}
	if err := op.Finish(); err != nil {
		return nil, err
	}
	rows := 0
	for _, p := range pages {
		rows += p.Len()
	}
	out := storage.NewBatch(op.OutSchema(), rows)
	for _, p := range pages {
		out.AppendBatch(p)
	}
	return out, nil
}
