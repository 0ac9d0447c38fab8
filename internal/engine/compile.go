package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/relop"
	"repro/internal/storage"
)

// This file is the submit-path compile cache. Canonicalizing a spec —
// rendering every subtree's fingerprint, sorting the pivot candidates,
// deriving per-option share keys and epoch sums, resolving the result-run
// cache option, instantiating throwaway operators for the root schema — is
// pure recomputation for the traffic this engine actually serves: closed-loop
// and cordobad arrivals are almost entirely repeated query families. Compile
// performs that work once, bottom-up, into a Compiled artifact; engines
// memoize the artifact per QuerySpec.PlanKey so a repeated family's submit
// skips straight to admission and the joinable-group probe.
//
// Correctness has two guards, both cheap:
//
//   - epoch validation: the artifact records the invalidation epoch of every
//     table the spec scans at compile time (atomic loads). A submit whose
//     tables have since mutated fails Valid() and recompiles — and because
//     the epoch is baked into the scan fingerprints themselves
//     (fingerprint.go), the recompiled keys can never collide with groups or
//     cached artifacts keyed before the mutation. Stale instantiated
//     artifacts never serve.
//   - structural guard: PlanKey is a caller promise, and callers get reuse
//     wrong. The artifact snapshots each node's identity-bearing fields
//     (fingerprint, scanned table, predicate, projected columns, page
//     quantum, child indices, pivot candidates); a submit whose spec
//     disagrees recompiles instead of serving another plan's keys.
//
// The artifact is also deliberately fusion-blind. Operator-chain fusion
// (fused.go) is a group-construction-time decision: it collapses the private
// linear segments between pivots into single tasks but never alters a node's
// fingerprint, share key, or pivot candidacy — so a Compiled artifact serves
// fused and staged (Options.NoFusion, Profile) engines identically, and a
// warm hit on one engine can never leak the other's physical plan shape.
// Whether a segment runs fused is re-derived from the engine's options on
// every group build, not memoized here.
//
// Models and hints are deliberately outside both guards: PivotOption.Model,
// QuerySpec.Model, and RowsHint are advisory estimates, so the submit path
// reads them from the incoming spec on every submission (optModel,
// resultModelFor, the spec's root RowsHint) rather than from the artifact. A
// caller that refreshes its cost models under an unchanged PlanKey gets
// admission priced and sinks pre-sized with the new numbers immediately —
// no epoch bump or recompile required.

// Compiled is one spec's canonical compile artifact: everything the submit
// path derives from the plan's shape, computed once. Safe for concurrent
// reuse — all fields are immutable after Compile except the lazily resolved
// root schema, which is guarded by a sync.Once.
type Compiled struct {
	signature string
	planKey   string

	// fps holds the canonical fingerprint of every node's subtree
	// (children before parents, one bottom-up pass).
	fps []string
	// opts are the spec's pivot candidates ordered highest level first,
	// keys the corresponding share keys (build namespace applied), and
	// epochs the per-option source-table epoch sums at compile time. The
	// Model fields inside opts are compile-time copies; the submit path
	// reads models through optModel so refreshed estimates under an
	// unchanged PlanKey are never served stale.
	opts   []PivotOption
	keys   []string
	epochs []uint64
	// buildKeys holds, per node offered as a build candidate, the key of
	// its build state (the namespace names the table's form); "" elsewhere.
	buildKeys []string
	// optSrc maps each entry of opts back to its index in the spec's
	// declared Pivots (-1 = the (Pivot, Model) fallback of a spec offering
	// no candidates); optModel resolves per-submit models through it.
	optSrc []int
	// epochAt is the per-node source-table epoch sum over each subtree.
	epochAt []uint64

	// scanTables/scanEpochs record every scanned table and its epoch at
	// compile time; Valid compares them against the live tables.
	scanTables []*storage.Table
	scanEpochs []uint64

	// guard snapshots the structural identity of each node for PlanKey
	// misuse detection; declaredPivot/declaredOpts snapshot the pivot
	// declaration in spec order (matches must not sort or allocate).
	guard         []nodeGuard
	declaredPivot int
	declaredOpts  []pivotGuard

	// resultKey describes the whole-plan result-run cache option (resultOK
	// false = the spec's fingerprint does not cover the plan); resultSrc
	// indexes the declared pivot candidate it came from (-1 = the spec's
	// own Pivot/Model), through which resultModelFor reads the per-submit
	// model.
	resultKey string
	resultSrc int
	resultOK  bool

	// rootSchema is resolved lazily (it instantiates throwaway operators)
	// and memoized — but only a successful resolution latches: a transient
	// factory error is returned to its submit and retried on the next one,
	// never served for the artifact's lifetime.
	schemaMu    sync.Mutex
	schemaReady atomic.Bool
	rootSchema  storage.Schema
}

// nodeGuard is the cheap structural identity of one node. For scans it
// snapshots every field the fingerprint renders — predicate and projection
// included, since ScanNode leaves NodeSpec.Fingerprint empty — so two specs
// under one PlanKey that differ only in a scan's predicate or columns can
// never pass Matches and be served each other's keys.
type nodeGuard struct {
	fingerprint            string
	table                  *storage.Table
	pred                   relop.Pred
	cols                   []string
	pageRows               int
	input                  int
	buildInput, probeInput int
}

// pivotGuard is one declared pivot candidate's identity.
type pivotGuard struct {
	pivot int
	build bool
}

// Compile canonicalizes a validated spec into its compile artifact: one
// bottom-up fingerprint pass, sorted pivot options with precomputed share
// keys and epoch sums, the result-run option, and the epoch/structure
// snapshots reuse is validated against. Exported so benchmarks can measure
// the cold compile step against the warm Valid() check directly. It renders
// the engine-free canonical form (tid=0 on every scan); engines compile
// through compileWith with their table-identity resolver.
func Compile(spec QuerySpec) *Compiled { return compileWith(spec, nil) }

// compileWith is Compile with an in-process table-identity resolver
// qualifying same-named distinct tables apart (see fingerprint.go).
func compileWith(spec QuerySpec, ident tableIdentFn) *Compiled {
	n := len(spec.Nodes)
	c := &Compiled{
		signature:     spec.Signature,
		planKey:       spec.PlanKey,
		fps:           make([]string, n),
		epochAt:       make([]uint64, n),
		guard:         make([]nodeGuard, n),
		declaredPivot: spec.Pivot,
	}
	for _, opt := range spec.Pivots {
		c.declaredOpts = append(c.declaredOpts, pivotGuard{pivot: opt.Pivot, build: opt.Build})
	}
	appendSubplanFingerprints(spec, c.fps, ident)
	for i, nd := range spec.Nodes {
		g := nodeGuard{fingerprint: nd.Fingerprint, input: nd.Input,
			buildInput: nd.BuildInput, probeInput: nd.ProbeInput}
		switch {
		case nd.Scan != nil:
			g.table = nd.Scan.Table
			g.pred = nd.Scan.Pred
			g.cols = nd.Scan.Cols
			if nd.Scan.Cols != nil {
				// Snapshot the projection: the guard must not see a
				// caller's later mutation of the slice it submitted with.
				g.cols = append([]string(nil), nd.Scan.Cols...)
			}
			g.pageRows = nd.Scan.PageRows
			c.scanTables = append(c.scanTables, nd.Scan.Table)
			c.scanEpochs = append(c.scanEpochs, nd.Scan.Table.Epoch())
			c.epochAt[i] = nd.Scan.Table.Epoch()
		case nd.Op != nil:
			c.epochAt[i] = c.epochAt[nd.Input]
		case nd.Join != nil:
			c.epochAt[i] = c.epochAt[nd.BuildInput] + c.epochAt[nd.ProbeInput]
		}
		c.guard[i] = g
	}
	c.opts = spec.pivotOptions()
	c.keys = make([]string, len(c.opts))
	c.epochs = make([]uint64, len(c.opts))
	c.optSrc = make([]int, len(c.opts))
	c.buildKeys = make([]string, n)
	for j, opt := range c.opts {
		if opt.Build {
			c.keys[j] = c.fps[opt.Pivot] + buildKeySuffixAt(spec, opt.Pivot)
			c.buildKeys[opt.Pivot] = c.keys[j]
		} else {
			c.keys[j] = c.fps[opt.Pivot]
		}
		c.epochs[j] = c.epochAt[opt.Pivot]
		c.optSrc[j] = -1
		for i, p := range spec.Pivots {
			if p.Pivot == opt.Pivot && p.Build == opt.Build {
				c.optSrc[j] = i
				break
			}
		}
	}
	// The whole-plan result-run option: the root offered as a non-build
	// pivot candidate (or declared as the only pivot) means fingerprint
	// equality implies result equality.
	root := n - 1
	c.resultSrc = -1
	for i, opt := range spec.Pivots {
		if !opt.Build && opt.Pivot == root {
			c.resultKey, c.resultSrc, c.resultOK = c.fps[root]+resultKeySuffix, i, true
			break
		}
	}
	if !c.resultOK && len(spec.Pivots) == 0 && spec.Pivot == root {
		c.resultKey, c.resultOK = c.fps[root]+resultKeySuffix, true
	}
	return c
}

// Valid reports whether the artifact still describes its tables: every
// scanned table's invalidation epoch matches the value observed at compile
// time. The check is a handful of atomic loads — the warm path's entire
// canonicalization cost.
func (c *Compiled) Valid() bool {
	for i, t := range c.scanTables {
		if t.Epoch() != c.scanEpochs[i] {
			return false
		}
	}
	return true
}

// Matches reports whether spec has the structure the artifact was compiled
// from — the PlanKey-misuse guard. A mismatch recompiles; it never errors.
// It runs on every warm hit, so it compares snapshots rather than rendering
// anything: allocation-free for plans built from the standard relop
// predicates (exotic Pred implementations fall back to reflect.DeepEqual).
// Exported (with Valid) so benchmarks can measure the warm-hit guard against
// the cold Compile.
func (c *Compiled) Matches(spec QuerySpec) bool {
	if spec.Signature != c.signature || len(spec.Nodes) != len(c.guard) ||
		spec.Pivot != c.declaredPivot || len(spec.Pivots) != len(c.declaredOpts) {
		return false
	}
	for i, nd := range spec.Nodes {
		g := c.guard[i]
		if nd.Fingerprint != g.fingerprint || nd.Input != g.input ||
			nd.BuildInput != g.buildInput || nd.ProbeInput != g.probeInput {
			return false
		}
		if nd.Scan != nil {
			if nd.Scan.Table != g.table || nd.Scan.PageRows != g.pageRows ||
				!colsEqual(nd.Scan.Cols, g.cols) || !relop.PredEqual(nd.Scan.Pred, g.pred) {
				return false
			}
		} else if g.table != nil {
			return false
		}
	}
	for j, opt := range spec.Pivots {
		if opt.Pivot != c.declaredOpts[j].pivot || opt.Build != c.declaredOpts[j].build {
			return false
		}
	}
	return true
}

// colsEqual compares two scan projections, distinguishing nil (every column)
// from an empty projection — the same distinction the fingerprint renders.
func colsEqual(a, b []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shareKeyAt returns the canonical share key of the subtree at pivot.
func (c *Compiled) shareKeyAt(pivot int) string { return c.fps[pivot] }

// buildKeyAt returns the build-state share key of the build candidate at
// pivot.
func (c *Compiled) buildKeyAt(pivot int) string { return c.buildKeys[pivot] }

// epochAtNode returns the compile-time source-table epoch sum of the subtree
// at pivot (current while Valid holds).
func (c *Compiled) epochAtNode(pivot int) uint64 { return c.epochAt[pivot] }

// optModel returns the model for pivot candidate j read from the incoming
// spec — models are advisory and must track the caller's current estimates,
// so a warm hit never serves the compile-time copy. Valid only for a spec
// that passed Matches (candidate order is guarded, so optSrc indexes apply).
func (c *Compiled) optModel(spec QuerySpec, j int) core.Query {
	if src := c.optSrc[j]; src >= 0 {
		return spec.Pivots[src].Model
	}
	return spec.Model
}

// resultModelFor returns the result-run cache option's model read from the
// incoming spec, under the same contract as optModel.
func (c *Compiled) resultModelFor(spec QuerySpec) core.Query {
	if c.resultSrc >= 0 {
		return spec.Pivots[c.resultSrc].Model
	}
	return spec.Model
}

// schema resolves (and memoizes) the root node's output schema by
// instantiating throwaway operators on first use. Only success latches: a
// transient resolve error fails this submit and the next one retries, so a
// long-lived artifact can never pin a recoverable error until an epoch bump
// happens to evict it.
func (c *Compiled) schema(spec QuerySpec, resolve func(QuerySpec) (storage.Schema, error)) (storage.Schema, error) {
	if c.schemaReady.Load() {
		return c.rootSchema, nil
	}
	c.schemaMu.Lock()
	defer c.schemaMu.Unlock()
	if c.schemaReady.Load() {
		return c.rootSchema, nil
	}
	s, err := resolve(spec)
	if err != nil {
		return storage.Schema{}, err
	}
	c.rootSchema = s
	c.schemaReady.Store(true)
	return s, nil
}

// maxCompiled bounds the per-engine compile cache. Plan families number in
// the dozens; the bound only matters when a caller generates unbounded
// distinct PlanKeys, in which case the whole map resets (simple, and the
// steady state for real traffic is always far below the cap).
const maxCompiled = 1024

// compileFor resolves the spec's compile artifact: the memoized one when the
// spec declares a PlanKey and the cached artifact is still structurally and
// epoch-valid, a fresh compile otherwise. Fresh compiles under a PlanKey
// replace the stale entry. Called without e.mu held.
func (e *Engine) compileFor(spec QuerySpec) *Compiled {
	c, _ := e.compileForHit(spec)
	return c
}

// compileForHit is compileFor, additionally reporting whether the artifact
// was served from the memo — the submit path records it on the query's
// lifecycle trace.
func (e *Engine) compileForHit(spec QuerySpec) (*Compiled, bool) {
	if spec.PlanKey != "" {
		e.mu.Lock()
		if c := e.memoizedLocked(spec); c != nil {
			e.n.CompileHits++
			e.mu.Unlock()
			return c, true
		}
		e.mu.Unlock()
	}
	c := compileWith(spec, e.tableIdentity)
	e.mu.Lock()
	e.n.CompileMisses++
	if spec.PlanKey != "" {
		if len(e.compiled) >= maxCompiled {
			e.compiled = make(map[string]*Compiled)
		}
		e.compiled[spec.PlanKey] = c
	}
	e.mu.Unlock()
	return c, false
}

// ShareKeyOf returns the share key of spec at its declared pivot, read from
// the compile memo when the memo holds a valid artifact that matches spec,
// and rendered by ShareKey otherwise. Admission asks for it on every request
// and the memo makes it a map lookup; the lookup counts no compile hit. The
// two agree unless the engine has bound a scanned table's name to another
// instance, and then the memo's key is the one its groups are registered
// under.
func (e *Engine) ShareKeyOf(spec QuerySpec) string {
	if spec.PlanKey != "" {
		e.mu.Lock()
		c := e.memoizedLocked(spec)
		e.mu.Unlock()
		if c != nil {
			return c.shareKeyAt(spec.Pivot)
		}
	}
	return ShareKey(spec)
}

// memoizedLocked returns the memoized artifact for spec's PlanKey when it is
// still epoch-valid and structurally matches spec, nil otherwise. e.mu must
// be held.
func (e *Engine) memoizedLocked(spec QuerySpec) *Compiled {
	if c := e.compiled[spec.PlanKey]; c != nil && c.Valid() && c.Matches(spec) {
		return c
	}
	return nil
}
