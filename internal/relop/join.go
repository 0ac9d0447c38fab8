package relop

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/storage"
)

// JoinKind selects hash-join semantics.
type JoinKind int

const (
	// Inner emits a combined row for every key match.
	Inner JoinKind = iota
	// Semi emits each probe row at most once if any build row matches
	// (EXISTS semantics, used by TPC-H Q4).
	Semi
	// Anti emits each probe row only if no build row matches.
	Anti
	// LeftOuter emits every probe row; non-matching rows carry zero/empty
	// build-side values plus a match count of zero when counting (used by
	// TPC-H Q13's left outer join).
	LeftOuter
)

func (k JoinKind) String() string {
	switch k {
	case Inner:
		return "inner"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	case LeftOuter:
		return "left-outer"
	default:
		return fmt.Sprintf("JoinKind(%d)", int(k))
	}
}

// HashTable is the sealed, immutable build side of a hash join: the
// materialized build rows plus the key index over them. Once sealed it is
// read-only by contract, so any number of probe operators — within one query
// or across concurrently executing queries that fingerprint-match the build
// subplan — may share the one table, each probing privately. Its row storage
// participates in the refcounted shared-page protocol (storage.Batch
// MarkShared/Release) so probers account for their claims like any fan-out
// consumer.
//
// The index is flat: keys maps each distinct key to a dense key id, and
// rowIDs[offsets[id]:offsets[id+1]] lists that key's build rows in insertion
// order (compressed sparse rows, filled by a stable counting pass at seal).
//
// A key-set table (KeySet) is the form a Semi or Anti build seals: the key
// table and the per-key row counts (offsets[id+1]-offsets[id]) only, with no
// row vectors and no row ids, since those probes read nothing of a build
// row but whether its key is there. Its Rows is an empty batch of the build
// schema, which still carries the shared-page reader claims.
//
// The table owns its build's store — the row vectors, the key table and the
// index — and Recycle hands that store back to its layout's pool for the
// next build. Whoever knows that no reader remains calls it: HashJoin.Finish
// for a private join whose table never escaped, and the engine at the last
// release of a shared build. A table nobody recycles is reclaimed by the
// garbage collector like any other value.
type HashTable struct {
	schema    storage.Schema
	key       string
	keyIdx    int
	rows      *storage.Batch
	keys      *intTable
	offsets   []int32
	rowIDs    []int
	footprint int64
	keySet    bool
	store     *buildStore
	pool      *sync.Pool
}

// Schema returns the build-side schema.
func (t *HashTable) Schema() storage.Schema { return t.schema }

// Key returns the build key column name.
func (t *HashTable) Key() string { return t.key }

// Rows returns the materialized build rows: an empty batch for a key-set
// table. Shared tables are read-only.
func (t *HashTable) Rows() *storage.Batch { return t.rows }

// KeySet reports whether the table keeps only its keys and their row
// counts, the form a Semi or Anti build seals (see NewJoinBuildFor).
func (t *HashTable) KeySet() bool { return t.keySet }

// Len returns the number of build rows the table was built from; a key-set
// table counts them without keeping them.
func (t *HashTable) Len() int {
	if len(t.offsets) == 0 {
		return 0
	}
	return int(t.offsets[len(t.offsets)-1])
}

// FootprintBytes approximates the resident size of the sealed table: the
// materialized build rows plus the key index (16 bytes per distinct key and
// one 8-byte row reference per indexed row), or only the 16 bytes per key of
// a key-set table. The keep-alive cache charges this against its byte budget
// when deciding whether retaining the table beats rebuilding it. Computed
// once, at seal.
func (t *HashTable) FootprintBytes() int64 { return t.footprint }

// Matches returns the build-row indices matching k, in insertion order (nil
// when none). The slice aliases the index: read-only. A key-set table keeps
// no rows, so Matches on one panics.
func (t *HashTable) Matches(k int64) []int {
	if t.keySet {
		panic("relop: Matches on a key-set table, which keeps no build rows")
	}
	id := t.keys.find(k)
	if id < 0 {
		return nil
	}
	return t.rowIDs[t.offsets[id]:t.offsets[id+1]]
}

// MatchCounts returns, for each key in probeKeys, how many build rows match,
// read from the per-key counts either form keeps. Q13 uses this to count
// orders per customer including zero counts.
func (t *HashTable) MatchCounts(probeKeys []int64) []int64 {
	out := make([]int64, len(probeKeys))
	for i, k := range probeKeys {
		if id := t.keys.find(k); id >= 0 {
			out[i] = int64(t.offsets[id+1] - t.offsets[id])
		}
	}
	return out
}

// Recycle returns the table's storage to its layout's pool and nils the
// table's slices, so a read after recycling fails loudly instead of seeing
// the next build's rows. The caller guarantees that no reader remains: no
// probe attached to the table, and no alias of Rows or Matches, may be used
// again. Recycling twice is a no-op.
func (t *HashTable) Recycle() {
	st := t.store
	if st == nil {
		return
	}
	t.store = nil
	for i := range st.vecs {
		v := &st.vecs[i]
		switch v.Type {
		case storage.Int64, storage.Date:
			v.I64 = v.I64[:0]
		case storage.Float64:
			v.F64 = v.F64[:0]
		case storage.String:
			// Drop the string references so a pooled store does not pin
			// the payloads of the rows it once held.
			clear(v.Str)
			v.Str = v.Str[:0]
		}
	}
	t.rows.Vecs, t.keys, t.offsets, t.rowIDs = nil, nil, nil, nil
	t.pool.Put(st)
}

// buildStore is the storage one hash-join build fills and its sealed table
// then owns: the row vectors, the key table, and the flat index. A recycled
// store keeps every slice's capacity, so a build no larger than one its
// layout has seen before allocates nothing.
type buildStore struct {
	vecs    []storage.Vector
	keys    intTable
	offsets []int32
	rowIDs  []int
	rowKey  []int32
}

// storePools holds one sync.Pool of *buildStore per build layout, keyed by
// the build schema's column types: any build of that layout can fill any of
// its stores. The pools' garbage-collector-driven eviction bounds how much
// they keep.
var storePools sync.Map

// storePool returns the pool of build stores for schema's layout.
func storePool(schema storage.Schema) *sync.Pool {
	layout := make([]byte, len(schema.Cols))
	for i, c := range schema.Cols {
		layout[i] = byte(c.Type)
	}
	if p, ok := storePools.Load(string(layout)); ok {
		return p.(*sync.Pool)
	}
	p, _ := storePools.LoadOrStore(string(layout), new(sync.Pool))
	return p.(*sync.Pool)
}

// JoinBuild is the stop-&-go build phase of a hash join, split out so the
// engine can run one build for a whole group of join queries: Push every
// build-side batch, Finish, then hand Table to each prober.
type JoinBuild struct {
	tbl *HashTable
	// rowKey is each pushed row's dense key id; Finish turns it (with the
	// per-key counts accumulating in tbl.offsets) into the table's index. A
	// key-set build keeps none.
	rowKey []int32
	// reserve is the row-count hint, applied by the first Push: a build is
	// constructed at submit, under the engine's lock, and the reservation
	// zeroes memory in proportion to it, so it waits for a worker.
	reserve int
	// fresh makes the build allocate its store instead of taking a pooled
	// one (see FreshStorage).
	fresh bool
	done  bool
}

// NewJoinBuild constructs a build over the given schema keyed on buildKey.
// Its table carries the build rows, so a probe of any kind may read it.
func NewJoinBuild(build storage.Schema, buildKey string) (*JoinBuild, error) {
	return NewJoinBuildSized(build, buildKey, 0)
}

// NewJoinBuildFor is NewJoinBuildSized for the build side of a join of the
// given kind: a Semi or Anti build seals a key-set table (HashTable.KeySet),
// which keeps only the distinct keys and their row counts, since those
// probes never read a build row; every other kind seals the row-carrying
// table.
func NewJoinBuildFor(kind JoinKind, build storage.Schema, buildKey string, hint int) (*JoinBuild, error) {
	jb, err := NewJoinBuildSized(build, buildKey, hint)
	if err != nil {
		return nil, err
	}
	jb.tbl.keySet = kind == Semi || kind == Anti
	return jb, nil
}

// NewJoinBuildSized is NewJoinBuild with a row-count hint: everything that
// holds one entry per build row — the row storage and the rows' key ids — is
// sized to the estimated build cardinality at the first Push, so a build whose
// model guessed right never regrows it mid-build. What holds one entry per
// distinct key (the key table and the offsets) grows on demand instead: a row
// count says nothing about how many keys repeat, and a table sized for rows
// that turn out to share keys stays resident, mostly empty, for as long as the
// table is cached.
// The hint is advisory — zero (or a wrong estimate) only costs the usual
// incremental growth, never correctness.
//
// The first Push takes the build's store from the pool of its layout when
// one is there, so a warm build reuses the storage of a recycled table
// (HashTable.Recycle) and allocates only what it needs beyond it.
func NewJoinBuildSized(build storage.Schema, buildKey string, hint int) (*JoinBuild, error) {
	bi, err := build.Index(buildKey)
	if err != nil {
		return nil, err
	}
	if t := build.Cols[bi].Type; t != storage.Int64 && t != storage.Date {
		return nil, fmt.Errorf("%w: join key %q must be integer, is %v", ErrType, buildKey, t)
	}
	if hint < 0 {
		hint = 0
	}
	return &JoinBuild{
		tbl: &HashTable{
			schema: build,
			key:    buildKey,
			keyIdx: bi,
			rows:   &storage.Batch{Schema: build},
			pool:   storePool(build),
		},
		reserve: hint,
	}, nil
}

// KeySet reports whether the build seals a key-set table.
func (jb *JoinBuild) KeySet() bool { return jb.tbl.keySet }

// FreshStorage makes the build allocate its own store rather than take a
// pooled one. The engine asks for it when the sealed table may be handed to
// the keep-alive cache: the cache charges FootprintBytes against its budget,
// so a cached table must not pin the capacity of a larger build's store.
// It takes effect only before the first Push (or an empty build's Finish).
func (jb *JoinBuild) FreshStorage() { jb.fresh = true }

// OutSchema implements Operator (the build "emits" nothing; the schema is
// the build side's, for fan-in adapters).
func (jb *JoinBuild) OutSchema() storage.Schema { return jb.tbl.schema }

// takeStore gives the table its store, reset and sized to the hint: a
// pooled one unless the build asked for fresh storage, else a new one. A
// key-set build sizes nothing by the hint, which counts rows it does not
// keep, and leaves a pooled store's row vectors empty.
func (jb *JoinBuild) takeStore() {
	t, n := jb.tbl, jb.reserve
	if t.keySet {
		n = 0
	}
	var st *buildStore
	if !jb.fresh {
		st, _ = t.pool.Get().(*buildStore)
	}
	if st == nil {
		st = &buildStore{vecs: make([]storage.Vector, len(t.schema.Cols))}
		for i, c := range t.schema.Cols {
			st.vecs[i] = storage.NewVector(c.Type, n)
		}
		st.keys.resize(16)
	} else {
		for i := range st.vecs {
			v := &st.vecs[i]
			switch v.Type {
			case storage.Int64, storage.Date:
				v.I64 = slices.Grow(v.I64, n)
			case storage.Float64:
				v.F64 = slices.Grow(v.F64, n)
			case storage.String:
				v.Str = slices.Grow(v.Str, n)
			}
		}
		st.keys.reset()
	}
	t.store = st
	t.rows.Vecs = st.vecs
	t.keys = &st.keys
	t.offsets = append(st.offsets[:0], 0, 0)
	jb.rowKey = slices.Grow(st.rowKey[:0], n)
	jb.reserve = 0
}

// Push implements Operator: appends one build-side batch column by column
// and resolves its keys to dense ids, one lookup per run of equal
// consecutive keys (a build side clustered on its key, as lineitem is on
// l_orderkey, repeats each key over several rows). A key-set build copies
// nothing: it only counts each run against its key.
func (jb *JoinBuild) Push(b *storage.Batch) error {
	if jb.done {
		return ErrFinished
	}
	ki, err := b.Schema.Index(jb.tbl.key)
	if err != nil {
		return err
	}
	t := jb.tbl
	if t.store == nil {
		jb.takeStore()
	}
	keys := b.Vecs[ki].I64
	// Until Finish, offsets[id+2] counts the rows of key id.
	if t.keySet {
		for j := 0; j < len(keys); {
			k, start := keys[j], j
			id, added := t.keys.findOrAdd(k)
			if added {
				t.offsets = append(t.offsets, 0)
			}
			for j < len(keys) && keys[j] == k {
				j++
			}
			t.offsets[id+2] += int32(j - start)
		}
		return nil
	}
	t.rows.AppendBatch(b)
	base := len(jb.rowKey)
	jb.rowKey = slices.Grow(jb.rowKey, len(keys))[:base+len(keys)]
	rowKey := jb.rowKey[base:]
	for j := 0; j < len(keys); {
		k, start := keys[j], j
		id, added := t.keys.findOrAdd(k)
		if added {
			t.offsets = append(t.offsets, 0)
		}
		for ; j < len(keys) && keys[j] == k; j++ {
			rowKey[j] = id
		}
		t.offsets[id+2] += int32(j - start)
	}
	return nil
}

// Finish implements Operator: seals the table. A counting pass over the
// rows' key ids lays every key's rows out contiguously, in insertion order;
// a key-set build, with no rows to lay out, skips it.
func (jb *JoinBuild) Finish() error {
	if jb.done {
		return ErrFinished
	}
	jb.done = true
	t := jb.tbl
	if t.store == nil {
		jb.takeStore()
	}
	// The running sum leaves key id's start position in offsets[id+1] and
	// its end in offsets[id+2].
	for i := 1; i < len(t.offsets); i++ {
		t.offsets[i] += t.offsets[i-1]
	}
	st := t.store
	st.offsets = t.offsets
	if t.keySet {
		t.offsets = t.offsets[1:]
		t.footprint = 16 * int64(t.keys.Len())
		return nil
	}
	// The scatter advances offsets[id+1] to key id's end, which is where it
	// belongs: the start of key id+1.
	st.rowIDs = slices.Grow(st.rowIDs[:0], len(jb.rowKey))[:len(jb.rowKey)]
	t.rowIDs = st.rowIDs
	for row, id := range jb.rowKey {
		t.rowIDs[t.offsets[id+1]] = row
		t.offsets[id+1]++
	}
	t.offsets = t.offsets[:len(t.offsets)-1]
	st.rowKey = jb.rowKey[:0]
	jb.rowKey = nil
	t.footprint = int64(t.rows.EstimatedBytes()) + 16*int64(t.keys.Len()) + 8*int64(len(t.rowIDs))
	return nil
}

// ConsumesInput reports that Push copies what it needs from each batch.
func (jb *JoinBuild) ConsumesInput() bool { return true }

// Table returns the sealed table; it panics before Finish (an unsealed
// table is mutable and must not escape). The caller owns the table's
// storage from here: it may Recycle the table once no reader remains, or
// leave it to the garbage collector.
func (jb *JoinBuild) Table() *HashTable {
	if !jb.done {
		panic("relop: JoinBuild.Table before Finish")
	}
	return jb.tbl
}

// HashJoinProbe is the pipelined probe phase of a hash join: constructed
// against the build and probe schemas, attached to a sealed HashTable (its
// own build's, or one shared across queries), then streamed through
// Push/Finish like any operator.
//
// Output schema: probe columns followed by build columns (except the build
// key, which duplicates the probe key). Semi and Anti joins emit only probe
// columns.
type HashJoinProbe struct {
	kind        JoinKind
	buildKey    string
	probeKey    string
	buildSchema storage.Schema
	probeSchema storage.Schema
	outSchema   storage.Schema
	buildCols   []int // indices of emitted build columns
	tbl         *HashTable
	emit        Emit
	// ids and counts hold, per probe row of the current page, the dense id
	// of its key (-1: no match) and the number of output rows it produces;
	// both are reused across pages.
	ids, counts []int32
	done        bool
}

// NewHashJoinProbe constructs the probe phase of a hash join of the given
// kind; AttachTable must be called before the first Push.
func NewHashJoinProbe(kind JoinKind, build storage.Schema, buildKey string, probe storage.Schema, probeKey string, emit Emit) (*HashJoinProbe, error) {
	bi, err := build.Index(buildKey)
	if err != nil {
		return nil, err
	}
	if t := build.Cols[bi].Type; t != storage.Int64 && t != storage.Date {
		return nil, fmt.Errorf("%w: join key %q must be integer, is %v", ErrType, buildKey, t)
	}
	pi, err := probe.Index(probeKey)
	if err != nil {
		return nil, err
	}
	if t := probe.Cols[pi].Type; t != storage.Int64 && t != storage.Date {
		return nil, fmt.Errorf("%w: join key %q must be integer, is %v", ErrType, probeKey, t)
	}
	h := &HashJoinProbe{
		kind:        kind,
		buildKey:    buildKey,
		probeKey:    probeKey,
		buildSchema: build,
		probeSchema: probe,
		emit:        emit,
	}
	var outCols []storage.Column
	outCols = append(outCols, probe.Cols...)
	if kind == Inner || kind == LeftOuter {
		for i, c := range build.Cols {
			if i == bi {
				continue
			}
			h.buildCols = append(h.buildCols, i)
			outCols = append(outCols, c)
		}
	}
	out, err := storage.NewSchema(outCols...)
	if err != nil {
		return nil, fmt.Errorf("relop: join output schema: %w (rename overlapping columns)", err)
	}
	h.outSchema = out
	return h, nil
}

// OutSchema implements Operator.
func (h *HashJoinProbe) OutSchema() storage.Schema { return h.outSchema }

// AttachTable points the probe at a sealed hash table. The table's schema
// and key must match what the probe was constructed against, and a key-set
// table serves only the kinds that read no build row (Semi, Anti).
func (h *HashJoinProbe) AttachTable(t *HashTable) error {
	if t == nil {
		return fmt.Errorf("relop: attach of nil hash table")
	}
	if t.key != h.buildKey || !t.schema.Equal(h.buildSchema) {
		return fmt.Errorf("relop: hash table (key %q) does not match probe build side (key %q)", t.key, h.buildKey)
	}
	if t.keySet && h.kind != Semi && h.kind != Anti {
		return fmt.Errorf("relop: a %v probe reads build rows, which a key-set table does not keep", h.kind)
	}
	h.tbl = t
	return nil
}

// Attached reports whether a table has been attached.
func (h *HashJoinProbe) Attached() bool { return h.tbl != nil }

// Push implements Operator: probes one batch. The key loop only resolves
// each probe row to its key id and output row count, so the output columns
// are allocated at their final size and filled one column at a time.
func (h *HashJoinProbe) Push(b *storage.Batch) error {
	if h.done {
		return ErrFinished
	}
	if h.tbl == nil {
		return fmt.Errorf("relop: probe before AttachTable")
	}
	ki, err := b.Schema.Index(h.probeKey)
	if err != nil {
		return err
	}
	t := h.tbl
	keys := b.Vecs[ki].I64
	if cap(h.ids) < len(keys) {
		h.ids, h.counts = make([]int32, len(keys)), make([]int32, len(keys))
	}
	ids, counts := h.ids[:len(keys)], h.counts[:len(keys)]
	total := 0
	for i, k := range keys {
		id := t.keys.find(k)
		var n int32
		switch {
		case id >= 0 && h.kind == Semi, id < 0 && (h.kind == Anti || h.kind == LeftOuter):
			n = 1
		case id >= 0 && h.kind != Anti:
			n = t.offsets[id+1] - t.offsets[id]
		}
		ids[i], counts[i] = id, n
		total += int(n)
	}
	if total == 0 {
		return nil
	}
	out := &storage.Batch{Schema: h.outSchema, Vecs: make([]storage.Vector, len(h.outSchema.Cols))}
	nProbe := len(h.probeSchema.Cols)
	for c := 0; c < nProbe; c++ {
		src, dst := &b.Vecs[c], &out.Vecs[c]
		dst.Type = h.outSchema.Cols[c].Type
		switch dst.Type {
		case storage.Int64, storage.Date:
			dst.I64 = repeatEach(src.I64, counts, total)
		case storage.Float64:
			dst.F64 = repeatEach(src.F64, counts, total)
		case storage.String:
			dst.Str = repeatEach(src.Str, counts, total)
		}
	}
	for j, ci := range h.buildCols {
		src, dst := &t.rows.Vecs[ci], &out.Vecs[nProbe+j]
		dst.Type = h.outSchema.Cols[nProbe+j].Type
		switch dst.Type {
		case storage.Int64, storage.Date:
			dst.I64 = gatherRuns(t, src.I64, ids, counts, total)
		case storage.Float64:
			dst.F64 = gatherRuns(t, src.F64, ids, counts, total)
		case storage.String:
			dst.Str = gatherRuns(t, src.Str, ids, counts, total)
		}
	}
	return h.emit(out)
}

// repeatEach returns src[i] counts[i] times over, for every i in order.
func repeatEach[T any](src []T, counts []int32, total int) []T {
	out := make([]T, total)
	j := 0
	for i, n := range counts {
		for ; n > 0; n-- {
			out[j] = src[i]
			j++
		}
	}
	return out
}

// gatherRuns lays out, for every probe row in order, the src values of the
// build rows its key id matches (in insertion order). A row without a match
// contributes counts[i] zero values: one for a left-outer miss, none
// otherwise.
func gatherRuns[T any](t *HashTable, src []T, ids, counts []int32, total int) []T {
	out := make([]T, total)
	j := 0
	for i, id := range ids {
		if id < 0 {
			j += int(counts[i])
			continue
		}
		for _, row := range t.rowIDs[t.offsets[id]:t.offsets[id+1]] {
			out[j] = src[row]
			j++
		}
	}
	return out
}

// Finish implements Operator.
func (h *HashJoinProbe) Finish() error {
	if h.done {
		return ErrFinished
	}
	h.done = true
	return nil
}

// ConsumesInput reports that Push copies matching rows into fresh output.
func (h *HashJoinProbe) ConsumesInput() bool { return true }

// HashJoin joins a build side and a probe side on int64 key columns: the
// classic single-query composition of the split build/probe phases. The
// build phase is stop-&-go (Section 5.3.3): call PushBuild for every build
// batch, then FinishBuild (which seals the table and attaches the probe),
// then stream the probe side through Push/Finish. Its own probe is the
// table's only reader, so Finish recycles the table — unless Table or
// MatchCounts handed it out first.
type HashJoin struct {
	build *JoinBuild
	probe *HashJoinProbe
	// escaped records that Table or MatchCounts handed the table out, so
	// Finish must leave it readable.
	escaped bool
}

// NewHashJoin constructs a hash join of the given kind.
func NewHashJoin(kind JoinKind, build storage.Schema, buildKey string, probe storage.Schema, probeKey string, emit Emit) (*HashJoin, error) {
	return NewHashJoinSized(kind, build, buildKey, probe, probeKey, 0, emit)
}

// NewHashJoinSized is NewHashJoin with a build-side row-count hint, passed to
// NewJoinBuildFor so the build's row storage starts at its estimated size.
// Advisory only. The build takes the form its kind reads: a key-set table for
// Semi and Anti.
func NewHashJoinSized(kind JoinKind, build storage.Schema, buildKey string, probe storage.Schema, probeKey string, buildHint int, emit Emit) (*HashJoin, error) {
	jb, err := NewJoinBuildFor(kind, build, buildKey, buildHint)
	if err != nil {
		return nil, err
	}
	pr, err := NewHashJoinProbe(kind, build, buildKey, probe, probeKey, emit)
	if err != nil {
		return nil, err
	}
	return &HashJoin{build: jb, probe: pr}, nil
}

// OutSchema implements Operator.
func (h *HashJoin) OutSchema() storage.Schema { return h.probe.OutSchema() }

// PushBuild consumes one build-side batch.
func (h *HashJoin) PushBuild(b *storage.Batch) error { return h.build.Push(b) }

// FinishBuild seals the hash table and attaches the probe phase to it; Push
// may be called afterwards.
func (h *HashJoin) FinishBuild() error {
	if err := h.build.Finish(); err != nil {
		return err
	}
	return h.probe.AttachTable(h.build.Table())
}

// Push implements Operator: probes one batch.
func (h *HashJoin) Push(b *storage.Batch) error {
	if !h.probe.Attached() && !h.build.done {
		return fmt.Errorf("relop: probe before FinishBuild")
	}
	return h.probe.Push(b)
}

// Finish implements Operator: the probe has read its last page, so a sealed
// table that never escaped goes back to its pool.
func (h *HashJoin) Finish() error {
	if err := h.probe.Finish(); err != nil {
		return err
	}
	if h.build.done && !h.escaped {
		h.build.tbl.Recycle()
	}
	return nil
}

// ConsumesInput reports that both phases copy what they need per batch.
func (h *HashJoin) ConsumesInput() bool { return true }

// Table returns the sealed hash table (valid after FinishBuild). A table
// handed out here is never recycled: Finish cannot know when the caller is
// done with it.
func (h *HashJoin) Table() *HashTable {
	h.escaped = true
	return h.build.Table()
}

// BuildFanIn adapts the build side to the Operator interface so a producer
// can Push/Finish into it like any other consumer.
func (h *HashJoin) BuildFanIn() Operator { return &buildSide{h: h} }

type buildSide struct{ h *HashJoin }

func (b *buildSide) OutSchema() storage.Schema   { return b.h.build.tbl.schema }
func (b *buildSide) Push(x *storage.Batch) error { return b.h.PushBuild(x) }
func (b *buildSide) Finish() error               { return b.h.FinishBuild() }

// MatchCounts returns, for each key in probeKeys, how many build rows match
// (valid after FinishBuild).
func (h *HashJoin) MatchCounts(probeKeys []int64) []int64 {
	return h.Table().MatchCounts(probeKeys)
}

// NLJoin is a (block) nested-loop join: the inner side is fully
// materialized, then each outer batch is joined against it with an arbitrary
// predicate over the combined row. It is fully pipelinable on the outer side
// (Section 5.3.1).
type NLJoin struct {
	pred        Pred
	inner       *storage.Batch
	outerSchema storage.Schema
	outSchema   storage.Schema
	emit        Emit
	innerDone   bool
	done        bool
}

// NewNLJoin builds a nested-loop join; pred filters the concatenated
// (outer ++ inner) row. Column names must not collide.
func NewNLJoin(outer, inner storage.Schema, pred Pred, emit Emit) (*NLJoin, error) {
	var cols []storage.Column
	cols = append(cols, outer.Cols...)
	cols = append(cols, inner.Cols...)
	out, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	if pred == nil {
		pred = True{}
	}
	return &NLJoin{
		pred:        pred,
		inner:       storage.NewBatch(inner, 0),
		outerSchema: outer,
		outSchema:   out,
		emit:        emit,
	}, nil
}

// OutSchema implements Operator.
func (j *NLJoin) OutSchema() storage.Schema { return j.outSchema }

// PushInner materializes inner-side batches.
func (j *NLJoin) PushInner(b *storage.Batch) error {
	if j.innerDone {
		return ErrFinished
	}
	for i := 0; i < b.Len(); i++ {
		j.inner.AppendBatchRow(b, i)
	}
	return nil
}

// FinishInner seals the inner side.
func (j *NLJoin) FinishInner() error {
	if j.innerDone {
		return ErrFinished
	}
	j.innerDone = true
	return nil
}

// Push implements Operator: joins one outer batch against the whole inner.
func (j *NLJoin) Push(b *storage.Batch) error {
	if j.done {
		return ErrFinished
	}
	if !j.innerDone {
		return fmt.Errorf("relop: outer push before FinishInner")
	}
	out := storage.NewBatch(j.outSchema, b.Len())
	nOuterCols := len(j.outerSchema.Cols)
	for o := 0; o < b.Len(); o++ {
		for in := 0; in < j.inner.Len(); in++ {
			// Materialize the candidate combined row into a 1-row batch and
			// test the predicate. Block NLJ would batch this; correctness
			// first, the engine charges its cost via the work model.
			cand := storage.NewBatch(j.outSchema, 1)
			for c := 0; c < nOuterCols; c++ {
				cand.Vecs[c].AppendFrom(b.Vecs[c], o)
			}
			for c := range j.inner.Vecs {
				cand.Vecs[nOuterCols+c].AppendFrom(j.inner.Vecs[c], in)
			}
			sel, err := j.pred.Filter(cand, nil)
			if err != nil {
				return err
			}
			if len(sel) == 1 {
				out.AppendBatchRow(cand, 0)
			}
		}
	}
	if out.Len() == 0 {
		return nil
	}
	return j.emit(out)
}

// Finish implements Operator.
func (j *NLJoin) Finish() error {
	if j.done {
		return ErrFinished
	}
	j.done = true
	return nil
}

// MergeJoin joins two sorted inputs on integer keys. Both inputs are
// accumulated (the engine sorts them upstream via Sort operators, making the
// ensemble the three-operation decomposition of Section 5.3.2), then merged
// on Finish. Duplicate keys produce the full cross product per key group.
type MergeJoin struct {
	leftKey, rightKey string
	left, right       *storage.Batch
	outSchema         storage.Schema
	rightCols         []int
	emit              Emit
	leftDone, done    bool
}

// NewMergeJoin builds a merge join over sorted inputs.
func NewMergeJoin(left storage.Schema, leftKey string, right storage.Schema, rightKey string, emit Emit) (*MergeJoin, error) {
	li, err := left.Index(leftKey)
	if err != nil {
		return nil, err
	}
	if t := left.Cols[li].Type; t != storage.Int64 && t != storage.Date {
		return nil, fmt.Errorf("%w: merge key %q must be integer", ErrType, leftKey)
	}
	ri, err := right.Index(rightKey)
	if err != nil {
		return nil, err
	}
	if t := right.Cols[ri].Type; t != storage.Int64 && t != storage.Date {
		return nil, fmt.Errorf("%w: merge key %q must be integer", ErrType, rightKey)
	}
	m := &MergeJoin{
		leftKey:  leftKey,
		rightKey: rightKey,
		left:     storage.NewBatch(left, 0),
		right:    storage.NewBatch(right, 0),
		emit:     emit,
	}
	var cols []storage.Column
	cols = append(cols, left.Cols...)
	for i, c := range right.Cols {
		if i == ri {
			continue
		}
		m.rightCols = append(m.rightCols, i)
		cols = append(cols, c)
	}
	out, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	m.outSchema = out
	return m, nil
}

// OutSchema implements Operator.
func (m *MergeJoin) OutSchema() storage.Schema { return m.outSchema }

// PushLeft accumulates left-side rows (must arrive key-sorted).
func (m *MergeJoin) PushLeft(b *storage.Batch) error {
	if m.leftDone {
		return ErrFinished
	}
	for i := 0; i < b.Len(); i++ {
		m.left.AppendBatchRow(b, i)
	}
	return nil
}

// FinishLeft seals the left side.
func (m *MergeJoin) FinishLeft() error {
	if m.leftDone {
		return ErrFinished
	}
	m.leftDone = true
	return nil
}

// Push accumulates right-side rows (must arrive key-sorted).
func (m *MergeJoin) Push(b *storage.Batch) error {
	if m.done {
		return ErrFinished
	}
	for i := 0; i < b.Len(); i++ {
		m.right.AppendBatchRow(b, i)
	}
	return nil
}

// Finish implements Operator: merges the two sorted sides and emits.
func (m *MergeJoin) Finish() error {
	if m.done {
		return ErrFinished
	}
	if !m.leftDone {
		return fmt.Errorf("relop: right side finished before left")
	}
	m.done = true
	lk := m.left.MustCol(m.leftKey).I64
	rk := m.right.MustCol(m.rightKey).I64
	out := storage.NewBatch(m.outSchema, 0)
	flush := func() error {
		if out.Len() == 0 {
			return nil
		}
		err := m.emit(out)
		out = storage.NewBatch(m.outSchema, 0)
		return err
	}
	i, j := 0, 0
	for i < len(lk) && j < len(rk) {
		switch {
		case lk[i] < rk[j]:
			i++
		case lk[i] > rk[j]:
			j++
		default:
			key := lk[i]
			iEnd := i
			for iEnd < len(lk) && lk[iEnd] == key {
				iEnd++
			}
			jEnd := j
			for jEnd < len(rk) && rk[jEnd] == key {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					for c := range m.left.Vecs {
						out.Vecs[c].AppendFrom(m.left.Vecs[c], a)
					}
					for ci, rc := range m.rightCols {
						out.Vecs[len(m.left.Vecs)+ci].AppendFrom(m.right.Vecs[rc], b)
					}
				}
			}
			if out.Len() >= 1024 {
				if err := flush(); err != nil {
					return err
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return flush()
}
