package engine

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/relop"
	"repro/internal/storage"
)

// PageSource produces pages for a leaf operator (table scan). Next performs
// at most one page worth of work per call; it may return a nil batch with
// eof=false when a quantum of work selected no rows (highly selective
// predicates still cost work).
type PageSource interface {
	// Schema describes emitted pages.
	Schema() storage.Schema
	// Next returns the next page (nil if this quantum produced no rows) and
	// whether the source is exhausted.
	Next() (b *storage.Batch, eof bool, err error)
}

// SourceFactory creates a fresh PageSource per query instantiation.
type SourceFactory func() (PageSource, error)

// OpFactory creates a fresh unary operator whose output goes to emit.
type OpFactory func(emit relop.Emit) (relop.Operator, error)

// JoinOperator is the two-input operator contract (hash join): the build
// side streams in first and is sealed with FinishBuild, then the probe side
// streams through Push/Finish. *relop.HashJoin satisfies it.
type JoinOperator interface {
	OutSchema() storage.Schema
	PushBuild(*storage.Batch) error
	FinishBuild() error
	Push(*storage.Batch) error
	Finish() error
}

// JoinFactory creates a fresh join operator per query instantiation.
type JoinFactory func(emit relop.Emit) (JoinOperator, error)

// ProbeOperator is the probe phase of a split hash join: the engine attaches
// it to a sealed hash table — its own group's, or one built once and shared
// across queries — then streams the probe side through Push/Finish.
// *relop.HashJoinProbe satisfies it; its AttachTable refuses a key-set table
// to a kind that reads build rows, which fails the member.
type ProbeOperator interface {
	OutSchema() storage.Schema
	AttachTable(*relop.HashTable) error
	Push(*storage.Batch) error
	Finish() error
}

// ProbeFactory creates a fresh probe-phase operator per member.
type ProbeFactory func(emit relop.Emit) (ProbeOperator, error)

// BuildFactory creates the build-phase operator that materializes a join's
// hash table (run once per shared build, not per member). Compiling a spec
// also runs it once, discarding the build, to learn the form of the table it
// seals: a key-set table (relop.JoinBuild.KeySet) is shared under its own
// build-state key namespace.
type BuildFactory func() (*relop.JoinBuild, error)

// ScanSpec declares a base-table scan transparently enough for the engine
// to share it in flight: unlike an opaque SourceFactory, the engine can see
// the table (so it can publish a circular scan in the registry) and read
// arbitrary row spans (so a late joiner's wrap-around lap can re-cover the
// prefix it missed).
type ScanSpec struct {
	// Table is the base table scanned.
	Table *storage.Table
	// Pred filters rows (nil = all rows).
	Pred relop.Pred
	// Cols projects the named columns (nil = all columns).
	Cols []string
	// PageRows is the scan quantum in base-table rows (<= 0 =
	// storage.PageRows).
	PageRows int
}

// NodeSpec describes one operator in a query spec. Exactly one of Source,
// Scan, Op, Join must be set.
type NodeSpec struct {
	// Name identifies the node; it doubles as the stage name for
	// profiling/busy-time accounting.
	Name string
	// RowsHint estimates the node's output cardinality (0 = unknown). The
	// engine pre-sizes the sink's result buffer from the root node's hint;
	// plan builders additionally close their operator factories over
	// per-node hints (relop.NewJoinBuildSized, relop.NewHashAggSized) so
	// hash maps and buffers start at their final size instead of growing
	// through doubling. Hints come from the same cardinality estimates the
	// sharing model prices work with — one currency, two consumers.
	RowsHint int
	// Fingerprint is the node's canonical identity for subplan sharing:
	// two nodes with equal fingerprints (and equally-fingerprinted inputs)
	// compute the same thing. Declared scans fingerprint themselves
	// structurally and may leave this empty; operator and join factories are
	// opaque closures, so a plan builder that wants the node inside a shared
	// prefix must declare its identity here. Empty on a non-scan node means
	// opaque: sharing through that node falls back to whole-Signature
	// matching (PR 1 semantics).
	Fingerprint string
	// Source makes this node a leaf producer.
	Source SourceFactory
	// Scan makes this node a declared base-table scan — a leaf producer the
	// engine may additionally share in flight when it is the pivot.
	Scan *ScanSpec
	// Op makes this node a unary operator over Input.
	Op OpFactory
	// Input is the child node index for unary operators.
	Input int
	// Partial and Merge, when both set on the root operator of a
	// parallelizable spec, are its clone-local and fan-in forms: under
	// parallel execution each clone runs Partial over its partition of the
	// scan and the clone outputs fan in through one synthesized Merge node,
	// which must emit exactly what Op over the whole input would have
	// (e.g. relop.NewPartialHashAgg / relop.NewMergeHashAgg). Nodes between
	// the scan and the root run their plain Op per clone and must therefore
	// be partition-safe — row-local operators like Filter and Project.
	Partial OpFactory
	Merge   OpFactory
	// Join makes this node a binary build/probe operator.
	Join JoinFactory
	// BuildInput and ProbeInput are the child node indices for joins.
	BuildInput, ProbeInput int
	// Build and Probe, when both set on a Join node, are its split forms:
	// Build materializes the immutable hash table (run once per shared
	// build) and Probe attaches to a sealed table and streams the probe side
	// (run per member). Declaring them makes the join's build side a
	// first-class shareable artifact — a PivotOption with Build set may then
	// anchor sharing on the build subtree, and concurrent queries whose
	// build subplans fingerprint-match run the build once and probe
	// privately. Absent, the join executes only through the opaque Join
	// factory (PR 3 semantics).
	Build BuildFactory
	Probe ProbeFactory
}

// IsSource reports whether the node is a leaf producer (Source or Scan).
func (nd NodeSpec) IsSource() bool { return nd.Source != nil || nd.Scan != nil }

// NewSource instantiates the node's page source, whether it was declared
// opaquely (Source) or transparently (Scan). Every call produces a fresh,
// independent instance.
func (nd NodeSpec) NewSource() (PageSource, error) {
	switch {
	case nd.Source != nil:
		return nd.Source()
	case nd.Scan != nil:
		return nd.Scan.newSource()
	default:
		return nil, fmt.Errorf("%w: node %s is not a source", ErrBadSpec, nd.Name)
	}
}

// ScanNode builds a NodeSpec for a declared, in-flight-shareable table scan.
func ScanNode(name string, tbl *storage.Table, pred relop.Pred, cols []string, pageRows int) NodeSpec {
	return NodeSpec{Name: name, Scan: &ScanSpec{Table: tbl, Pred: pred, Cols: cols, PageRows: pageRows}}
}

// QuerySpec describes an executable query: nodes in topological order (root
// last) plus the sharing pivot. The subtree rooted at the pivot is the
// shared sub-plan; every node outside it — an arbitrary tree of operators,
// joins, and even other leaf scans — is instantiated privately per sharer,
// with the member's node that consumes the pivot fed from the group's
// fan-out (or, for build-side pivots, attached to the group's sealed hash
// table).
type QuerySpec struct {
	// Signature identifies the shareable sub-plan; only queries with equal
	// signatures may merge (Cordoba detects sharing opportunities by
	// matching packets at stage queues; signature equality is our packet
	// match).
	Signature string
	// PlanKey, when non-empty, declares the spec a member of a stable plan
	// family: every spec submitted under the same PlanKey has the same node
	// structure (same tables, predicates, fingerprints, pivot candidates),
	// so the engine may reuse one compiled artifact — canonical
	// fingerprints, share keys, sorted pivot options, the root schema —
	// across submissions instead of re-rendering them (see compile.go). The
	// compiled artifact is epoch-validated against the scanned tables and
	// structurally guarded against key misuse, so a wrong or reused PlanKey
	// degrades to a recompile, never to a wrong plan. Empty means compile
	// fresh on every submit.
	PlanKey string
	// Nodes are the operators, children before parents, root last.
	Nodes []NodeSpec
	// Pivot indexes the sharing pivot node.
	Pivot int
	// Model carries the query's analytical-model coefficients, used by
	// model-guided sharing policies at admission time.
	Model core.Query
	// Pivots optionally offers alternative sharing pivots: each option is a
	// node index at which the plan may merge with a group, paired with the
	// model compiled against that pivot. When empty the spec shares only at
	// Pivot. At submission the engine probes options from the highest level
	// down ("the highest point where sharing is possible") for a joinable
	// group, and a pivot-selecting policy chooses the level a fresh group
	// anchors at.
	Pivots []PivotOption
	// Parallel requests unshared execution as this many partitioned clones
	// (0 = let the submission policy decide, 1 = force serial). Degrees
	// above 1 require a parallelizable plan (see CanParallel) and are
	// clamped to the engine's worker count at submission.
	Parallel int
}

// PivotOption is one candidate sharing pivot: a node index the plan may
// merge at, with the model coefficients compiled against that pivot (the
// split of work into below/pivot/above depends on the level).
type PivotOption struct {
	// Pivot indexes the candidate pivot node.
	Pivot int
	// Build marks a build-side candidate: Pivot is the root of the build
	// subtree of a join declaring split Build/Probe forms, and the shared
	// artifact is the sealed hash table that subtree builds — members run
	// the build once and probe privately — rather than a fanned-out page
	// stream. The group stays joinable for as long as the table is live
	// (sealed tables lose nothing to late joiners).
	Build bool
	// Model is the query's work model compiled at this pivot.
	Model core.Query
}

// Spec validation errors.
var (
	ErrBadSpec = errors.New("engine: invalid query spec")
)

// pivotOptions returns the spec's candidate pivots ordered highest level
// first, falling back to the declared (Pivot, Model) when none are offered.
func (q QuerySpec) pivotOptions() []PivotOption {
	if len(q.Pivots) == 0 {
		return []PivotOption{{Pivot: q.Pivot, Model: q.Model}}
	}
	out := append([]PivotOption(nil), q.Pivots...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pivot > out[j-1].Pivot; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CanParallel reports whether the spec can run as partitioned clones: the
// plan is a linear chain rooted at a declared base-table scan (node 0), so
// morsels of the scan can be dispensed to clones, and the root operator
// provides the Partial/Merge pair the synthesized fan-in needs.
func (q QuerySpec) CanParallel() bool {
	if len(q.Nodes) < 2 || q.Nodes[0].Scan == nil {
		return false
	}
	for i := 1; i < len(q.Nodes); i++ {
		if q.Nodes[i].Op == nil || q.Nodes[i].Input != i-1 {
			return false
		}
	}
	root := q.Nodes[len(q.Nodes)-1]
	return root.Partial != nil && root.Merge != nil
}

// SubtreeMask returns, per node, whether it belongs to the subtree rooted at
// pivot — the shared sub-plan when sharing anchors there. Because every
// non-root node is consumed exactly once, the subtree is self-contained: no
// node inside it is consumed outside it except the pivot itself.
func (q QuerySpec) SubtreeMask(pivot int) []bool {
	in := make([]bool, len(q.Nodes))
	var mark func(i int)
	mark = func(i int) {
		in[i] = true
		nd := q.Nodes[i]
		switch {
		case nd.Op != nil:
			mark(nd.Input)
		case nd.Join != nil:
			mark(nd.BuildInput)
			mark(nd.ProbeInput)
		}
	}
	if pivot >= 0 && pivot < len(q.Nodes) {
		mark(pivot)
	}
	return in
}

// pivotConsumer returns the index of the node consuming pivot's output, or
// -1 for the root (the sink consumes it).
func (q QuerySpec) pivotConsumer(pivot int) int {
	for i, nd := range q.Nodes {
		if nd.Op != nil && nd.Input == pivot {
			return i
		}
		if nd.Join != nil && (nd.BuildInput == pivot || nd.ProbeInput == pivot) {
			return i
		}
	}
	return -1
}

// validateBuildOption checks a build-side pivot candidate: the candidate
// node must be the build input of a join declaring split Build/Probe forms.
func (q QuerySpec) validateBuildOption(pivot int) error {
	c := q.pivotConsumer(pivot)
	if c < 0 {
		return fmt.Errorf("%w: build pivot %d has no consuming join", ErrBadSpec, pivot)
	}
	nd := q.Nodes[c]
	if nd.Join == nil || nd.BuildInput != pivot {
		return fmt.Errorf("%w: build pivot %d is not the build input of a join", ErrBadSpec, pivot)
	}
	if nd.Build == nil || nd.Probe == nil {
		return fmt.Errorf("%w: join %d (%s) lacks the Build/Probe split a build pivot needs", ErrBadSpec, c, nd.Name)
	}
	return nil
}

// Validate checks structural constraints: node kinds, topological child
// references, single consumption of every non-root node, well-formed pivot
// candidates (build-side candidates must anchor the build input of a join
// with split forms), and a parallelizable plan when a clone degree is
// requested. The part outside a pivot's subtree may be any tree — operators,
// joins, further leaf scans — since members instantiate it privately.
func (q QuerySpec) Validate() error {
	if len(q.Nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrBadSpec)
	}
	if q.Parallel < 0 {
		return fmt.Errorf("%w: negative parallel degree %d", ErrBadSpec, q.Parallel)
	}
	if q.Parallel > 1 && !q.CanParallel() {
		return fmt.Errorf("%w: parallel degree %d on a non-parallelizable plan", ErrBadSpec, q.Parallel)
	}
	if q.Pivot < 0 || q.Pivot >= len(q.Nodes) {
		return fmt.Errorf("%w: pivot %d out of range", ErrBadSpec, q.Pivot)
	}
	consumed := make([]int, len(q.Nodes))
	for i, nd := range q.Nodes {
		kinds := 0
		if nd.Source != nil {
			kinds++
		}
		if nd.Scan != nil {
			kinds++
		}
		if nd.Op != nil {
			kinds++
		}
		if nd.Join != nil {
			kinds++
		}
		if kinds != 1 {
			return fmt.Errorf("%w: node %d (%s) must set exactly one of Source/Scan/Op/Join", ErrBadSpec, i, nd.Name)
		}
		if (nd.Build != nil) != (nd.Probe != nil) {
			return fmt.Errorf("%w: node %d (%s) must set Build and Probe together", ErrBadSpec, i, nd.Name)
		}
		if nd.Build != nil && nd.Join == nil {
			return fmt.Errorf("%w: node %d (%s) declares Build/Probe without Join", ErrBadSpec, i, nd.Name)
		}
		if nd.Scan != nil && nd.Scan.Table == nil {
			return fmt.Errorf("%w: node %d (%s) scan has no table", ErrBadSpec, i, nd.Name)
		}
		if nd.Op != nil {
			if nd.Input < 0 || nd.Input >= i {
				return fmt.Errorf("%w: node %d (%s) input %d not topological", ErrBadSpec, i, nd.Name, nd.Input)
			}
			consumed[nd.Input]++
		}
		if nd.Join != nil {
			for _, in := range []int{nd.BuildInput, nd.ProbeInput} {
				if in < 0 || in >= i {
					return fmt.Errorf("%w: node %d (%s) join input %d not topological", ErrBadSpec, i, nd.Name, in)
				}
				consumed[in]++
			}
			if nd.BuildInput == nd.ProbeInput {
				return fmt.Errorf("%w: node %d (%s) build and probe share input", ErrBadSpec, i, nd.Name)
			}
		}
	}
	for i := range q.Nodes {
		want := 1
		if i == len(q.Nodes)-1 {
			want = 0 // root feeds the sink
		}
		if consumed[i] != want {
			return fmt.Errorf("%w: node %d (%s) consumed %d times, want %d", ErrBadSpec, i, q.Nodes[i].Name, consumed[i], want)
		}
	}
	for _, opt := range q.Pivots {
		if opt.Pivot < 0 || opt.Pivot >= len(q.Nodes) {
			return fmt.Errorf("%w: candidate pivot %d out of range", ErrBadSpec, opt.Pivot)
		}
		if opt.Build {
			if err := q.validateBuildOption(opt.Pivot); err != nil {
				return err
			}
		}
	}
	return nil
}

// TableSource returns a SourceFactory scanning tbl with pred over the given
// columns, one page of base-table rows per quantum.
func TableSource(tbl *storage.Table, pred relop.Pred, cols []string, pageRows int) SourceFactory {
	sc := &ScanSpec{Table: tbl, Pred: pred, Cols: cols, PageRows: pageRows}
	return func() (PageSource, error) { return sc.newSource() }
}

// newSource instantiates the scan's page reader.
func (sc *ScanSpec) newSource() (*tableSource, error) {
	s := sc.Table.Schema()
	useCols := sc.Cols
	if useCols == nil {
		for _, c := range s.Cols {
			useCols = append(useCols, c.Name)
		}
	}
	out, err := s.Project(useCols...)
	if err != nil {
		return nil, err
	}
	colIdx := make([]int, len(useCols))
	for i, name := range useCols {
		colIdx[i] = s.MustIndex(name) // Project resolved every name
	}
	p := sc.Pred
	if p == nil {
		p = relop.True{}
	}
	rows := sc.PageRows
	if rows <= 0 {
		rows = storage.PageRows
	}
	return &tableSource{
		tbl:      sc.Table,
		pred:     p,
		colIdx:   colIdx,
		out:      out,
		pageRows: rows,
		window:   &storage.Batch{Schema: s, Vecs: make([]storage.Vector, s.Arity())},
	}, nil
}

// tableSource reads one scan's pages. It is stepped by one task at a time —
// a shared circular scan, a parallel clone and a plain source each own
// theirs — so its reused buffers need no lock.
type tableSource struct {
	tbl      *storage.Table
	pred     relop.Pred
	colIdx   []int // projected columns' positions in the table schema
	out      storage.Schema
	pageRows int
	offset   int
	sel      []int          // reused selection buffer; output batches never alias it
	window   *storage.Batch // reused full-width view of the span being read
}

// Schema implements PageSource.
func (t *tableSource) Schema() storage.Schema { return t.out }

// Next implements PageSource: one page of base rows per call.
func (t *tableSource) Next() (*storage.Batch, bool, error) {
	n := t.tbl.NumRows()
	if t.offset >= n {
		return nil, true, nil
	}
	hi := t.offset + t.pageRows
	if hi > n {
		hi = n
	}
	b, err := t.readSpan(t.offset, hi)
	if err != nil {
		return nil, false, err
	}
	t.offset = hi
	return b, t.offset >= n, nil
}

// readSpan filters and projects base rows [lo, hi), returning nil when the
// predicate selects none. Circular scans call it with registry-chosen spans
// (including wrap-around re-reads for late joiners).
func (t *tableSource) readSpan(lo, hi int) (*storage.Batch, error) {
	// The window is re-sliced in place for every span: predicates only read
	// it and the output page below is gathered into pooled storage, so
	// nothing holds it past this call.
	for i, v := range t.tbl.Data().Vecs {
		t.window.Vecs[i] = v.Slice(lo, hi)
	}
	sel, err := t.pred.Filter(t.window, relop.FillSel(t.sel, hi-lo))
	if err != nil {
		return nil, err
	}
	t.sel = sel // retain the backing array for the next span
	if len(sel) == 0 {
		return nil, nil
	}
	// Scan output pages come from the page pool: a Consuming chain (or the
	// staged equivalent) releases each page once folded, returning the
	// column storage here for the next span instead of to the allocator.
	res := storage.GetPage(t.out, len(sel))
	for i, c := range t.colIdx {
		res.Vecs[i].AppendGather(t.window.Vecs[c], sel)
	}
	return res, nil
}
