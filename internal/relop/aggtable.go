package relop

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/storage"
)

// aggTable is the group table HashAgg and MergeHashAgg share. resolve turns a
// page into a vector of dense group ids (assigned in first-seen order); the
// operators then fold their inputs into the struct-of-arrays accumulators
// with one loop per aggregate. See the package comment for the key encoding
// and the ordering contracts.
type aggTable struct {
	groupBy []string
	specs   []AggSpec
	// keys holds each group's first-seen key values, one vector per group-by
	// column, indexed by group id.
	keys []storage.Vector
	accs []aggAcc
	n    int // groups

	ints   *intTable        // single integer/date key
	byKey  map[string]int32 // every other key shape, by encoded key
	keyBuf []byte
	ids    []int32
	cols   []*storage.Vector

	// unseen marks group 0 as the row a global aggregate owes over empty
	// input: its min/max render as zero.
	unseen bool
}

// aggAcc is one aggregate's accumulators, indexed by group id. Only the
// slices its AggFunc reads at emission are kept (non-nil) and updated.
type aggAcc struct {
	sums   []float64
	counts []int64
	mins   []float64
	maxs   []float64
}

func newAggTable(groupBy []string, keyCols []storage.Column, specs []AggSpec, hint int) *aggTable {
	t := &aggTable{groupBy: groupBy, specs: specs, accs: make([]aggAcc, len(specs))}
	for _, c := range keyCols {
		t.keys = append(t.keys, storage.NewVector(c.Type, hint))
	}
	switch {
	case len(keyCols) == 0:
	case len(keyCols) == 1 && payloadOf(keyCols[0].Type) == storage.Int64:
		t.ints = newIntTable(hint)
	default:
		t.byKey = make(map[string]int32, hint)
	}
	for i, sp := range specs {
		a := &t.accs[i]
		switch sp.Func {
		case Sum:
			a.sums = make([]float64, 0, hint)
		case Count:
			a.counts = make([]int64, 0, hint)
		case Avg:
			a.sums = make([]float64, 0, hint)
			a.counts = make([]int64, 0, hint)
		case Min:
			a.mins = make([]float64, 0, hint)
		case Max:
			a.maxs = make([]float64, 0, hint)
		}
	}
	return t
}

// payloadOf maps a column type to the type naming its payload slice (Date
// shares Int64's).
func payloadOf(t storage.Type) storage.Type {
	if t == storage.Date {
		return storage.Int64
	}
	return t
}

// resolve returns the dense group id of every row of b, adding the groups b
// introduces. The result is valid until the next call.
func (t *aggTable) resolve(b *storage.Batch) ([]int32, error) {
	n := b.Len()
	if cap(t.ids) < n {
		t.ids = make([]int32, n)
	}
	ids := t.ids[:n]
	cols := t.cols[:0]
	for c, g := range t.groupBy {
		i, err := b.Schema.Index(g)
		if err != nil {
			return nil, err
		}
		v := &b.Vecs[i]
		if payloadOf(v.Type) != payloadOf(t.keys[c].Type) {
			return nil, fmt.Errorf("%w: group key %q arrives as %v, declared %v", ErrType, g, v.Type, t.keys[c].Type)
		}
		cols = append(cols, v)
	}
	t.cols = cols
	switch {
	case n == 0:
	case len(cols) == 0:
		// Global aggregate: every row is group 0, and ids is never written
		// in this mode, so it is all zeros already.
		if t.n == 0 {
			t.addGroup(cols, 0)
		}
	case t.ints != nil:
		for r, k := range cols[0].I64[:n] {
			id, added := t.ints.findOrAdd(k)
			if added {
				t.addGroup(cols, r)
			}
			ids[r] = id
		}
	default:
		buf := t.keyBuf
		for r := range ids {
			buf = buf[:0]
			for _, v := range cols {
				switch v.Type {
				case storage.Int64, storage.Date:
					buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I64[r]))
				case storage.Float64:
					buf = binary.LittleEndian.AppendUint64(buf, floatKeyBits(v.F64[r]))
				case storage.String:
					buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str[r])))
					buf = append(buf, v.Str[r]...)
				}
			}
			id, ok := t.byKey[string(buf)]
			if !ok {
				id = t.addGroup(cols, r)
				t.byKey[string(buf)] = id
			}
			ids[r] = id
		}
		t.keyBuf = buf
	}
	return ids, nil
}

// floatKeyBits is the key encoding of a float: its IEEE bits, with every NaN
// folded to one pattern because all NaNs render — and so used to group — as
// "NaN". +0 and -0 stay distinct, as they render.
func floatKeyBits(x float64) uint64 {
	if x != x {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(x)
}

// addGroup appends a group keyed by row r of cols, with empty accumulators,
// and returns its id.
func (t *aggTable) addGroup(cols []*storage.Vector, r int) int32 {
	for c, v := range cols {
		t.keys[c].AppendFrom(*v, r)
	}
	for i := range t.accs {
		a := &t.accs[i]
		if a.sums != nil {
			a.sums = append(a.sums, 0)
		}
		if a.counts != nil {
			a.counts = append(a.counts, 0)
		}
		if a.mins != nil {
			a.mins = append(a.mins, math.Inf(1))
		}
		if a.maxs != nil {
			a.maxs = append(a.maxs, math.Inf(-1))
		}
	}
	t.n++
	return int32(t.n - 1)
}

// The accumulator kernels: acc is indexed by group id, ids and xs by row.
// Rows fold in row order, so each group sees its inputs in arrival order.

func addTo[A, T number](acc []A, ids []int32, xs []T) {
	xs = xs[:len(ids)]
	for r, id := range ids {
		acc[id] += A(xs[r])
	}
}

func countRows(acc []int64, ids []int32) {
	for _, id := range ids {
		acc[id]++
	}
}

func minOf[T number](acc []float64, ids []int32, xs []T) {
	xs = xs[:len(ids)]
	for r, id := range ids {
		if x := float64(xs[r]); x < acc[id] {
			acc[id] = x
		}
	}
}

func maxOf[T number](acc []float64, ids []int32, xs []T) {
	xs = xs[:len(ids)]
	for r, id := range ids {
		if x := float64(xs[r]); x > acc[id] {
			acc[id] = x
		}
	}
}

// emitOrder returns the group ids in emission order: ascending by the
// canonical rendering of the key, i%d| / f%g| / s%q| per column. The string
// is the group key earlier versions hashed on per row; it is rendered here
// once per group only so that output order stays what it was.
func (t *aggTable) emitOrder() []int {
	// canon[ends[g-1]:ends[g]] is group g's rendering.
	var canon []byte
	ends := make([]int, t.n)
	for g := range ends {
		for _, kv := range t.keys {
			switch kv.Type {
			case storage.Int64, storage.Date:
				canon = strconv.AppendInt(append(canon, 'i'), kv.I64[g], 10)
			case storage.Float64:
				// fmt, not strconv: %g drops the sign strconv puts on +Inf.
				canon = fmt.Appendf(canon, "f%g", kv.F64[g])
			case storage.String:
				canon = strconv.AppendQuote(append(canon, 's'), kv.Str[g])
			}
			canon = append(canon, '|')
		}
		ends[g] = len(canon)
	}
	rendering := func(g int) []byte {
		if g == 0 {
			return canon[:ends[0]]
		}
		return canon[ends[g-1]:ends[g]]
	}
	order := make([]int, t.n)
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(rendering(a), rendering(b)) })
	return order
}

// emitPages streams the groups in emission order, storage.PageRows per page:
// the key columns gathered from keys, then whatever cols appends for the
// chunk.
func (t *aggTable) emitPages(outSchema storage.Schema, emit Emit, cols func(vecs []storage.Vector, chunk []int) []storage.Vector) error {
	order := t.emitOrder()
	for lo := 0; lo < len(order); lo += storage.PageRows {
		chunk := order[lo:min(lo+storage.PageRows, len(order))]
		vecs := make([]storage.Vector, 0, outSchema.Arity())
		for _, kv := range t.keys {
			vecs = append(vecs, kv.Gather(chunk))
		}
		if err := emit(&storage.Batch{Schema: outSchema, Vecs: cols(vecs, chunk)}); err != nil {
			return err
		}
	}
	return nil
}

func gatherFloats(src []float64, idx []int) storage.Vector {
	return storage.Vector{Type: storage.Float64, F64: src}.Gather(idx)
}

func gatherInts(src []int64, idx []int) storage.Vector {
	return storage.Vector{Type: storage.Int64, I64: src}.Gather(idx)
}

// emitFinalRows streams final aggregate rows, one per group ordered by key,
// synthesizing the single zero row a global aggregate owes over empty input.
// Shared by HashAgg and MergeHashAgg so serial and partial+merge execution
// emit identical results.
func (t *aggTable) emitFinalRows(outSchema storage.Schema, emit Emit) error {
	if len(t.groupBy) == 0 && t.n == 0 {
		t.addGroup(nil, 0)
		t.unseen = true
	}
	return t.emitPages(outSchema, emit, func(vecs []storage.Vector, chunk []int) []storage.Vector {
		for i, sp := range t.specs {
			a := &t.accs[i]
			switch sp.Func {
			case Sum:
				vecs = append(vecs, gatherFloats(a.sums, chunk))
			case Count:
				vecs = append(vecs, gatherInts(a.counts, chunk))
			case Avg:
				avg := make([]float64, len(chunk))
				for j, g := range chunk {
					if a.counts[g] != 0 {
						avg[j] = a.sums[g] / float64(a.counts[g])
					}
				}
				vecs = append(vecs, storage.Vector{Type: storage.Float64, F64: avg})
			case Min, Max:
				ext := a.mins
				if sp.Func == Max {
					ext = a.maxs
				}
				if t.unseen {
					ext = make([]float64, t.n)
				}
				vecs = append(vecs, gatherFloats(ext, chunk))
			}
		}
		return vecs
	})
}
