package relop

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/storage"
)

// aggTable is the group table HashAgg and MergeHashAgg share. resolve turns a
// page into a vector of dense group ids (assigned in first-seen order); the
// operators then fold their inputs into the struct-of-arrays accumulators
// with one loop per distinct accumulator. See the package comment for the key
// encodings and the ordering contracts.
type aggTable struct {
	groupBy []string
	specs   []AggSpec
	// keys holds each group's first-seen key values, one vector per group-by
	// column, indexed by group id.
	keys []storage.Vector
	accs []aggAcc
	n    int // groups

	ints   *intTable        // single integer/date key
	packed *intTable        // 1–4 string keys, until a row's keys need more than 8 bytes
	byKey  map[string]int32 // every other key shape, by encoded key
	keyBuf []byte
	ids    []int32
	cols   []*storage.Vector

	// unseen marks group 0 as the row a global aggregate owes over empty
	// input: its min/max render as zero.
	unseen bool
}

// aggAcc is one aggregate's accumulators, indexed by group id. Only the
// slices its AggFunc reads at emission are kept (non-nil) and updated, and
// only by their owner: sumOf and countOf index the aggregate whose sums and
// counts this one reads — itself, or the first Sum/Avg over a structurally
// equal input, or the first Count/Avg (every row counts, so all counts are
// equal).
type aggAcc struct {
	sums   []float64
	counts []int64
	mins   []float64
	maxs   []float64

	sumOf, countOf int
}

// maxPackedKeys is the most string key columns the packed path takes. Each
// column spends a length byte of the 8, so past four at most three bytes of
// key text would remain and nearly every table would demote.
const maxPackedKeys = 4

func newAggTable(groupBy []string, keyCols []storage.Column, specs []AggSpec, hint int) *aggTable {
	t := &aggTable{groupBy: groupBy, specs: specs, accs: make([]aggAcc, len(specs))}
	for _, c := range keyCols {
		t.keys = append(t.keys, storage.NewVector(c.Type, hint))
	}
	switch {
	case len(keyCols) == 0:
	case len(keyCols) == 1 && payloadOf(keyCols[0].Type) == storage.Int64:
		t.ints = newIntTable(hint)
	case len(keyCols) <= maxPackedKeys && !slices.ContainsFunc(keyCols, func(c storage.Column) bool { return c.Type != storage.String }):
		t.packed = newIntTable(hint)
	default:
		t.byKey = make(map[string]int32, hint)
	}
	counter := -1 // the first aggregate that counts rows
	for i, sp := range specs {
		a := &t.accs[i]
		a.sumOf, a.countOf = i, i
		if sp.Func == Sum || sp.Func == Avg {
			for j, o := range specs[:i] {
				if (o.Func == Sum || o.Func == Avg) && exprEqual(o.Expr, sp.Expr) {
					a.sumOf = t.accs[j].sumOf
					break
				}
			}
			if a.sumOf == i {
				a.sums = make([]float64, 0, hint)
			}
		}
		if sp.Func == Count || sp.Func == Avg {
			if counter < 0 {
				counter = i
				a.counts = make([]int64, 0, hint)
			}
			a.countOf = counter
		}
		switch sp.Func {
		case Min:
			a.mins = make([]float64, 0, hint)
		case Max:
			a.maxs = make([]float64, 0, hint)
		}
	}
	return t
}

// exprEqual reports whether two aggregate inputs are the same expression
// tree, so that one sum serves both. Unlike ExprEqual it never falls back to
// reflection and compares float literals by bit pattern: a false share would
// hand one aggregate another's sum, so any Expr outside the four standard
// kinds is unequal even to itself. It does not allocate.
func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case ColRef:
		y, ok := b.(ColRef)
		return ok && x.Name == y.Name
	case ConstInt:
		y, ok := b.(ConstInt)
		return ok && x.V == y.V
	case ConstFloat:
		y, ok := b.(ConstFloat)
		return ok && math.Float64bits(x.V) == math.Float64bits(y.V)
	case Arith:
		y, ok := b.(Arith)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	default:
		return false
	}
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
	case t.packed != nil:
		for r := range ids {
			k, ok := packKeys(cols, r)
			if !ok {
				t.demote()
				t.resolveEncoded(cols, ids, r)
				break
			}
			id, added := t.packed.findOrAdd(int64(k))
			if added {
				t.addGroup(cols, r)
			}
			ids[r] = id
		}
	default:
		t.resolveEncoded(cols, ids, 0)
	}
	return ids, nil
}

// packKeys packs row r's string keys into one word, low byte first: per
// column a length byte, then the bytes; the bytes left over stay zero. ok is
// false when the keys need more than 8 bytes.
func packKeys(cols []*storage.Vector, r int) (k uint64, ok bool) {
	used := 0
	for _, v := range cols {
		s := v.Str[r]
		if used+1+len(s) > 8 {
			return 0, false
		}
		k |= uint64(len(s)) << (8 * used)
		used++
		for i := 0; i < len(s); i++ {
			k |= uint64(s[i]) << (8 * used)
			used++
		}
	}
	return k, true
}

// demote moves a packed table to the encoded-key map for good, re-keying the
// groups seen so far under the ids they already have.
func (t *aggTable) demote() {
	t.byKey = make(map[string]int32, t.n)
	for g := 0; g < t.n; g++ {
		buf := t.keyBuf[:0]
		for c := range t.keys {
			buf = appendKey(buf, &t.keys[c], g)
		}
		t.byKey[string(buf)] = int32(g)
		t.keyBuf = buf
	}
	t.packed = nil
}

// resolveEncoded resolves rows from, from+1, … of cols through the
// encoded-key map, writing their ids into ids.
func (t *aggTable) resolveEncoded(cols []*storage.Vector, ids []int32, from int) {
	buf := t.keyBuf
	for r := from; r < len(ids); r++ {
		buf = buf[:0]
		for _, v := range cols {
			buf = appendKey(buf, v, r)
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

// appendKey appends the encoding of row r of one key column to buf.
func appendKey(buf []byte, v *storage.Vector, r int) []byte {
	switch v.Type {
	case storage.Int64, storage.Date:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.I64[r]))
	case storage.Float64:
		return binary.LittleEndian.AppendUint64(buf, floatKeyBits(v.F64[r]))
	default:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str[r])))
		return append(buf, v.Str[r]...)
	}
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
// canonical rendering of the key, i%d| / f%g| / s%q| per column, the string
// earlier versions grouped on. It sorts one uint64 sort key per group whose
// order agrees with the rendering's: a single integer key of at most
// maxExactDigits digits is encoded without rendering it (intEmitOrder);
// every other key sorts by the first 8 bytes of its rendering, and the
// renderings decide where two of those are equal.
func (t *aggTable) emitOrder() []int {
	order := make([]int, t.n)
	if len(t.keys) == 1 && payloadOf(t.keys[0].Type) == storage.Int64 && intEmitOrder(t.keys[0].I64[:t.n], order) {
		return order
	}
	// canon[ends[g-1]:ends[g]] is group g's rendering.
	var canon []byte
	ends := make([]int, t.n)
	type sortKey struct {
		key uint64
		id  int
	}
	ks := make([]sortKey, t.n)
	for g := range ends {
		start := len(canon)
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
		var head [8]byte
		copy(head[:], canon[start:])
		ks[g] = sortKey{key: binary.BigEndian.Uint64(head[:]), id: g}
	}
	rendering := func(g int) []byte {
		if g == 0 {
			return canon[:ends[0]]
		}
		return canon[ends[g-1]:ends[g]]
	}
	slices.SortFunc(ks, func(a, b sortKey) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return bytes.Compare(rendering(a.id), rendering(b.id))
	})
	for i, k := range ks {
		order[i] = k.id
	}
	return order
}

// intEmitOrder fills order with the emission order of the groups whose
// single integer key values are vals, and reports whether it could: it
// cannot when a value has more than maxExactDigits digits, or when the
// group ids do not fit below the keys. The sort keys are exact, hence
// distinct, and any two differ at or above the first padding nibble of the
// shorter: the nibbles below the last digit of the longest key never
// decide, so the ids ride there and one sort of plain words orders the
// groups.
func intEmitOrder(vals []int64, order []int) bool {
	words := make([]uint64, len(vals))
	maxDigits := 0
	for g, v := range vals {
		k, d := intSortKey(v)
		words[g] = k
		maxDigits = max(maxDigits, d)
	}
	idBits := bits.Len(uint(len(vals)))
	if maxDigits > maxExactDigits || idBits > 4*(maxExactDigits-maxDigits) {
		return false
	}
	mask := uint64(1)<<idBits - 1
	for g := range words {
		words[g] = words[g]&^mask | uint64(g)
	}
	slices.Sort(words)
	for i, w := range words {
		order[i] = int(w & mask)
	}
	return true
}

// maxExactDigits is the most decimal digits a sort key holds: the top
// nibble of the 16 holds the sign.
const maxExactDigits = 15

// pow10[i] is 10^i, up to the largest that fits a uint64.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// intSortKey returns the number of decimal digits of v and, when that is at
// most maxExactDigits, the sort key of v's rendering i<v>|. The key reads
// nibble by nibble from the top: a sign nibble (0 for negative, as '-'
// sorts before every digit), then digit+1 per decimal digit of |v|, then
// 0xF padding, which sorts after every digit just as '|' does.
func intSortKey(v int64) (key uint64, digits int) {
	u, sign := uint64(v), uint64(1)
	if v < 0 {
		u, sign = -u, 0
	}
	// bits.Len64 × log10(2), then one comparison to correct it (u|1 has the
	// digits of u and a nonzero length).
	digits = bits.Len64(u|1) * 1233 >> 12
	if u|1 >= pow10[digits] {
		digits++
	}
	if digits > maxExactDigits {
		return 0, digits
	}
	key = sign<<60 | ^uint64(0)>>(4+4*digits)
	for shift := 4 * (maxExactDigits - digits); shift < 60; shift += 4 {
		key |= (u%10 + 1) << shift
		u /= 10
	}
	return key, digits
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

// sumsOf and countsOf return the sums and counts aggregate i reads, which
// its owner keeps.
func (t *aggTable) sumsOf(i int) []float64 { return t.accs[t.accs[i].sumOf].sums }
func (t *aggTable) countsOf(i int) []int64 { return t.accs[t.accs[i].countOf].counts }

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
				vecs = append(vecs, gatherFloats(t.sumsOf(i), chunk))
			case Count:
				vecs = append(vecs, gatherInts(t.countsOf(i), chunk))
			case Avg:
				sums, counts := t.sumsOf(i), t.countsOf(i)
				avg := make([]float64, len(chunk))
				for j, g := range chunk {
					if counts[g] != 0 {
						avg[j] = sums[g] / float64(counts[g])
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
