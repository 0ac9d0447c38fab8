// Package core implements the analytical work-sharing model from
// "To Share or Not To Share?" (Johnson et al., VLDB 2007).
//
// The model predicts the rate of forward progress of m concurrent pipelined
// queries executing on n processors, both when the queries run independently
// and when they share a common sub-plan, and therefore whether applying work
// sharing is a net win.
//
// # Terms (Table 1 of the paper)
//
//	w      work an operator performs per unit of forward progress
//	s      work required to output a unit of forward progress to EACH consumer
//	p      total work per unit of forward progress: p = Σ w_i + Σ s_j
//	r      peak rate of forward progress for a query: r = 1/p_max
//	u      maximum processor utilization per query: u = u'/p_max, u' = Σ p_k
//	x(m,n) rate of forward progress given m queries and n processors
//	φ      the pivot operator — the highest point where sharing is possible
//	Z(m,n) benefit of sharing: x_shared/x_unshared; share iff Z > 1
//
// All streams carry units of forward progress rather than tuples, so that
// operators with different selectivities are directly comparable: each
// operator's per-unit work is expressed relative to the forward progress of
// one reference tuple stream for the query.
//
// # Execution semantics captured
//
//   - Pipelined plans: the slowest (bottleneck) operator bounds the whole
//     query, r = 1/p_max.
//   - Limited hardware: if the group's utilization demand u exceeds the n
//     available processors, time-sharing uniformly throttles the rate by n/u,
//     giving x(n) = min(1/p_max, n/u').
//   - Shared execution at a pivot φ: work below φ executes once for the whole
//     group; the pivot pays its own w once plus s per consumer, so
//     p_φ(M) = w_φ + Σ_m s_mφ, which can become the new bottleneck; the
//     slowest member throttles the group.
//   - Contention for shared hardware (caches, memory bandwidth): effectively
//     only n·k processors are available, 0 < k ≤ 1, with possibly different k
//     for shared and unshared execution.
//   - Closed systems (Section 5.1): completed queries are immediately
//     replaced, so group rate uses the harmonic-mean form
//     r_unshared = M / Σ_m p_max(m) and each query is throttled only by its
//     own bottleneck.
//   - Stop-&-go operators (Section 5.2): sorts and hash builds consume their
//     whole input before producing; a shared hash build is priced as a query
//     compiled at the build pivot (BuildShareX).
//
// # In-flight sharing (beyond the paper)
//
// The paper's experiments form sharing groups at submission time: a query
// may merge at a pivot only while that pivot has not yet emitted its first
// page, which in steady closed-loop traffic almost never happens for
// scan pivots (the window between group creation and first emit is one
// scheduling quantum). The reproduction therefore extends the engine with a
// circular ("elevator") scan registry (internal/storage): a late arrival
// attaches to a scan already in progress at its current cursor position,
// consumes the remaining fraction f of the table riding alongside the
// existing group, and recovers the missed prefix when the cursor wraps
// around — every consumer still sees each page exactly once, in rotated
// order, which is sound above order-insensitive operators such as the hash
// aggregates over every scan pivot here.
//
// The model extends naturally to the attach decision. The wrap-around lap
// makes the pivot re-execute (1-f) of its per-progress work w solely to
// serve the late joiner, so admission evaluates the usual benefit test with
// the per-consumer cost inflated to s + (1-f)·w/m (equivalently, the group
// pivot total p_φ(m) inflated by (1-f)·w) and compares the adjusted shared
// rate against unshared execution of the unmodified queries:
// x_shared(adj; m, n) > x_unshared(m, n). With f = 1 this reduces exactly
// to the Section 8 submission-time test Z(m, n) > 1. See
// policy.ModelGuided.ShouldAttach and engine.AttachPolicy.
//
// # Share vs parallelize (beyond the paper)
//
// Sharing is only half of the paper's question: on a multicore the real
// alternative to merging m queries into one serial shared pipeline is
// running them unshared but parallelized. The reproduction therefore also
// models intra-query parallelism: a query split into d partitioned clones
// (disjoint morsels of its scan dispensed to competing clone pipelines,
// partial operators fanning into one serial merge node) has bottleneck
// work p_max/d but an extra serial merge stage costing the pivot's s — so
// its peak rate saturates at 1/s, and under processor saturation it
// degrades to the plain unshared rate because partitioning conserves work
// (ParallelX). Choose evaluates all three regimes — serial shared cost
// s·m, parallel unshared cost w/d under the current load, serial alone —
// and returns share / parallelize / run-alone plus the winning degree:
// idle contexts favor parallelizing (rate is the constraint), saturation
// favors sharing (work elimination is the constraint). The engine realizes
// each decision physically: sharing through pivot fan-out and the circular
// scan registry, parallelism through the morsel dispenser, per-clone
// partial operators, and the synthesized merge node. See
// policy.ModelGuided (MaxDegree), engine.ParallelPolicy, and
// storage.MorselDispenser.
//
// # The pivot at an arbitrary level (beyond the paper)
//
// The paper defines φ as "the highest point where sharing is possible" and
// charges p_φ(M) = w_φ + Σ_m s_mφ at whatever level sharing happens, but
// an engine that can only merge at the scan leaf forces φ to the bottom:
// every consumer re-runs the filters, projections, and aggregation the
// group could execute once. The reproduction lifts the pivot above the
// scan. The engine canonicalizes the prefix of a plan at each candidate
// pivot into a subplan fingerprint (engine.ShareKey); queries merge
// whenever their prefixes canonicalize identically, each member keeping
// its own private chain above the pivot — so group-by variants of one
// report share a single filtered table pass, date-window variants share a
// superset scan and apply private residual filters, and identical queries
// share everything down to the final fan-out of result rows. The same
// Query type models every level: Compile flattens the plan against any
// pivot node, and the unshared quantities (u', p_max) are invariant to
// where the plan is split, so only the shared arms differ by level.
// BestPivot picks the level with the fastest predicted shared rate, and
// ChoosePivoted extends Choose to the full four-way decision — run-alone,
// share at the best φ, parallelize into d clones, or attach to a scan
// already in flight with remaining coverage f (share with s inflated by
// the wrap-around re-scan; f = 1 reduces the attach arm to the plain share
// arm, f < 0 meaning no compatible group removes both sharing arms).
//
// # Build-side sharing (beyond the paper)
//
// Chain-shaped pivots stop short of the paper's join reuse case: two join
// queries whose probe sides differ can never fingerprint-match at or above
// the join, yet everything below the join's build branch may be identical.
// Tree-shaped plan specs fix this. Fingerprints canonicalize recursively
// per branch, any subtree may anchor sharing (members privately
// instantiate the arbitrary tree that remains, including other leaf scans
// and joins), and a join declaring split build/probe forms offers its
// build subtree as a pivot candidate whose shared artifact is the sealed,
// immutable hash table rather than a page stream: the group runs the
// build once, publishes the table through the work exchange as a
// refcounted buildstate entry, and every member attaches a private probe
// — before the seal (parking until the table is ready) or long after
// (sealed tables lose nothing to late joiners; the state retires with its
// last prober).
//
// The model needs no new equation, only a new compilation: a Query
// compiled at the build pivot has the build work w_b as PivotW (run once
// per group), a near-zero PivotS (handing a member an immutable table is
// a pointer hand-off, not a page stream), and the probe subtree plus
// everything above as per-member Above work. BuildShareZ names the
// comparison — one build amortized over m probes versus m parallel builds
// — and because s_b ≈ 0 the shared bottleneck does not grow with m, so
// build sharing is the rare arm whose benefit increases monotonically
// with the group size on any processor count. BestPivot and ChoosePivoted
// treat a build candidate like any other level. See engine.PivotOption
// (Build), relop.JoinBuild / HashJoinProbe, storage.BuildState, and
// tpch.Q4FamilySpec / tpch.Q13FamilySpec.
//
// # Keep-alive retention (beyond the paper)
//
// All of the above shares work among queries alive at the same time; the
// group's economics end with its last consumer. Bursty traffic breaks that
// boundary in a predictable way: a burst amortizes one hash build over its
// members, drains, and the next burst — arriving after an idle gap of
// milliseconds — rebuilds the very table the previous one just dropped.
// The reproduction therefore retains retired shared artifacts (sealed
// build-state hash tables, completed whole-plan result runs) in a
// memory-budgeted keep-alive cache (internal/artifact) keyed by the same
// canonical subtree fingerprints, converting the across-burst rebuild into
// a late attach with zero build work.
//
// The model extends with the retain-vs-evict decision, the cache-side
// sibling of the build-share test. The work a retained artifact saves per
// re-arrival is its rebuild cost — everything at and below its pivot,
// RebuildCost = Σ below + w_φ (for a build state, the build subtree plus
// the hashing pass w_b; for a result run, the whole plan). Weighted by the
// probability that a fingerprint-matching query re-arrives within the
// keep-alive window this gives RetainBenefit, and relative to the
// artifact's claim on the cache budget (footprint/budget) it gives the
// benefit ratio RetainZ — retain iff RetainZ > 1, exactly parallel to
// "share iff Z > 1" (ShouldRetain). Under memory pressure the cache evicts
// in benefit-density order (RetainScore, expected work saved per pinned
// byte), least recently used among equals: LRU-by-benefit. Correctness is
// epoch-guarded rather than modeled — every artifact records the
// invalidation epoch of its source tables at build time
// (storage.Table.Epoch, bumped by any mutation-path publish), and a lookup
// at a different epoch drops the entry instead of serving it. See
// artifact.Cache, engine.Options (Cache, SweepInterval), and the
// engine's CacheHits/CacheMisses/CacheEvictions/CacheBytes counters.
//
// # Admission control (beyond the paper)
//
// A long-running server faces a decision the paper's closed loops never do:
// what to do with a query that arrives while the system is busy. The same
// coefficients price it (Admit). Four arms, for a query q arriving on n
// processors with `active` queries running and `queued` waiting:
//
//   - admit-shared: ChoosePivoted's share (or attach) arm wins at the
//     effective contention max(m, active+1). The group is already paying
//     its below-pivot work, so q's marginal demand is only its private
//     above-pivot chain plus one more s at the pivot — admissible even past
//     saturation. Sharing is the server's first line of overload defense,
//     which is the paper's thesis restated as a queueing policy.
//   - admit-alone: q runs unshared, adding its full u' to the system.
//     Admissible only while the unshared demand fits the hardware,
//     (active+1)·u' ≤ n·k (an empty system always admits).
//   - queue: the system is saturated. A saturated system completes one
//     query per u'/n model-time, so a FIFO of depth k drains in k·u'/n and
//     q's predicted response is wait(k) + service, with service =
//     (active+1)/x(active+1, n). Queue while that response fits the
//     submitter's patience bound (default: DefaultPatienceFactor × the
//     unloaded standalone response time).
//   - shed: the predicted response exceeds the patience bound even at the
//     current depth — refuse now rather than time out later. The
//     queue-vs-shed crossover depth is exact and exported, k* =
//     ⌊(patience − service)·n/u'⌋ (QueueCrossover), so servers can size
//     queues and tests can pin the flip point.
//
// When a bounded queue overflows, the entry to shed is the one whose best
// execution arm forwards the least progress per unit time — AdmitBenefit
// prices each entry's winning arm at the current load, ShedVictim takes the
// minimum (ties shed the youngest). A query riding a sharing group scores
// its shared rate, one that must run alone scores its contended unshared
// rate, so the sharer survives the cut: work elimination, not arrival
// order, decides who stays. See internal/server for the serving front door
// wired to these decisions, and cmd/cordobad for the daemon.
//
// # Scatter-gather sharding (beyond the paper)
//
// Partitioning a table across N engine shards poses the model one more
// question: is scattering a query across all shards worth the gather?
// The answer reuses the coefficients unchanged. Running a plan whole on
// one shard costs its full utilization demand u'; scattering runs each
// shard's partial over 1/k of the input but adds a gather stage that
// folds k partial results into one, and folding is priced exactly like
// pivot fan-out — one hand-off of cost s per extra producer. So
//
//	T(k) = u'/k + s·(k−1)
//
// (ShardT), scatter iff T(k) < T(1) (ShouldScatter), and the optimal
// shard count interior to the trade-off is k* ≈ √(u'/s):
// scan-heavy plans with large u' scatter wide, while plans whose cost
// already concentrates in a fan-out-priced root see the gather term
// dominate immediately and route whole to a single shard, round-robin.
// One subtlety: the s in the gather term is the ROOT pivot's hand-off
// cost — the merge folds final partial aggregates — not the anchor
// pivot's. Pricing the gather at a below-root anchor (e.g. a shared
// scan's per-page s) would veto scattering for exactly the scan-heavy
// plans that benefit most. engine.ShardPlan.Gather carries the
// root-level (u', s) pair on every compiled scatter plan for this
// reason. See engine.Cluster, engine.CompileScatter, and
// tpch.CompileShardPlans;
// replicated build subtrees fingerprint identically on every shard, so
// the cross-shard work-exchange bus (below) runs one hash build
// cluster-wide and every other shard attaches to the sealed table.
//
// On the storage side all sharing primitives register, attach, and retire
// through one unified work-exchange registry (storage.Exchange), keyed by
// subplan fingerprint: circular scans (every page to every consumer),
// morsel dispensers (every page to exactly one clone), subplan outlets
// (a shared operator pipeline above the scan), and buildstate entries
// (sealed hash-join tables, refcounted by their probers); an age-based
// sweep reclaims superseded orphans and wedged builds, with supersede and
// reclaim counters surfaced in workload stats. Pivot fan-out defaults to
// refcounted read-only pages (storage.Batch.MarkShared / Writable /
// Release): every consumer receives the same page, a deep copy happens
// only on a consumer's write path, and sinks and page-consuming operators
// release their reader claims as soon as they finish so the last adopter
// takes the original by move, with eager per-consumer cloning
// (engine.FanOutClone) retained as the physical realization of s for
// calibration and ablation. See policy.ModelGuided (PivotSelect),
// engine.PivotPolicy, and tpch.Q1FamilySpec / tpch.Q6FamilySpec.
//
// A note on where the engine actually pays s. The model charges the
// per-consumer hand-off cost s at pivots — the points where one producer's
// forward progress fans out to multiple consumers. The execution engine's
// fused operator chains (internal/engine) make the physical cost structure
// match that accounting: a linear scan→filter→project→partial-agg segment
// between pivots compiles into a single task whose operators are direct
// calls, so pages cross a queue, and thus incur a hand-off, only at pivot
// and join boundaries. A fused segment pays s once, at the pivot boundary
// where the model charges it — not once per operator hop, which is what the
// fully staged execution of earlier revisions paid and what Options.NoFusion
// still pays for comparison. Fusion never crosses a pivot candidate, so the
// set of places s is paid is exactly the set of places sharing is possible.
//
// # Decision records and the audit loop (beyond the paper)
//
// Every regime commitment above — alone, share at φ, attach, build-share,
// parallel, scatter — is stamped into a DecisionRecord at the moment the
// engine commits to it, carrying the decision kind, the pivot level, the
// group size it was priced at, and the model's own predictions
// (PredictedSpeedup, PredictedZ, u′). The telemetry layer
// (internal/obs, wired in internal/engine) later pairs each record with
// the measured outcome: a calibration factor learned from queries that ran
// alone converts u′ into an expected alone wall time, and dividing by the
// query's measured wall time yields the realized speedup. The
// measured/predicted ratio per decision kind feeds prediction-error
// histograms on the metrics endpoint — a standing audit of every formula
// in this package against the engine that executes its advice.
//
// Cardinality estimates are one currency with two consumers. The same
// closed-form row-count estimates in internal/tpch that feed this model's
// work coefficients (pricing share-vs-parallelize and admit-vs-shed
// decisions) also pre-size the physical operators — hash-join builds, hash
// aggregates, sorts, and collectors start at their estimated final size
// (relop.NewJoinBuildSized and friends). Both consumers tolerate error the
// same way: a wrong estimate shifts a decision or costs a reallocation,
// never correctness.
package core
