package relop

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/storage"
)

// This file keeps the row-at-a-time aggregate the typed kernels replaced, as
// the oracle the differential tests compare them against: every row renders
// its group key with fmt into a string, looks the group up by that string,
// boxes the key values, and emission boxes each row through AppendRow. It is
// obviously correct and defines the behaviour the kernels must reproduce —
// grouping, per-group accumulation order, and emission order.

type naiveAggState struct {
	keyVals []any
	sums    []float64
	counts  []int64
	mins    []float64
	maxs    []float64
	seen    []bool
}

func newNaiveAggState(keyVals []any, n int) *naiveAggState {
	st := &naiveAggState{
		keyVals: keyVals,
		sums:    make([]float64, n),
		counts:  make([]int64, n),
		mins:    make([]float64, n),
		maxs:    make([]float64, n),
		seen:    make([]bool, n),
	}
	for i := range st.mins {
		st.mins[i] = math.Inf(1)
		st.maxs[i] = math.Inf(-1)
	}
	return st
}

// naiveGroupKeyAt renders the group key of one row: the canonical string
// plus the boxed key values.
func naiveGroupKeyAt(keyVecs []storage.Vector, row int, buf *strings.Builder) (string, []any) {
	buf.Reset()
	keyVals := make([]any, len(keyVecs))
	for i, v := range keyVecs {
		switch v.Type {
		case storage.Int64, storage.Date:
			fmt.Fprintf(buf, "i%d|", v.I64[row])
			keyVals[i] = v.I64[row]
		case storage.Float64:
			fmt.Fprintf(buf, "f%g|", v.F64[row])
			keyVals[i] = v.F64[row]
		case storage.String:
			fmt.Fprintf(buf, "s%q|", v.Str[row])
			keyVals[i] = v.Str[row]
		}
	}
	return buf.String(), keyVals
}

func naiveAsFloat(v storage.Vector, i int) float64 {
	if v.Type == storage.Float64 {
		return v.F64[i]
	}
	return float64(v.I64[i])
}

// naiveAgg is the oracle for HashAgg (partial false), the partial aggregate
// (partial true) and, through pushPartial, MergeHashAgg.
type naiveAgg struct {
	groupBy   []string
	specs     []AggSpec
	outSchema storage.Schema
	partial   bool
	groups    map[string]*naiveAggState
	emit      Emit
}

func newNaiveAgg(in storage.Schema, groupBy []string, specs []AggSpec, partial bool, emit Emit) (*naiveAgg, error) {
	// The real constructors derive the schemas; only execution is naive.
	h, err := NewHashAgg(in, groupBy, specs, nil)
	if err != nil {
		return nil, err
	}
	out := h.OutSchema()
	if partial {
		if out, err = PartialAggSchema(in, groupBy, specs); err != nil {
			return nil, err
		}
	}
	return &naiveAgg{
		groupBy:   groupBy,
		specs:     specs,
		outSchema: out,
		partial:   partial,
		groups:    map[string]*naiveAggState{},
		emit:      emit,
	}, nil
}

func (h *naiveAgg) keyVecs(b *storage.Batch) ([]storage.Vector, error) {
	keyVecs := make([]storage.Vector, len(h.groupBy))
	for i, g := range h.groupBy {
		v, err := b.Col(g)
		if err != nil {
			return nil, err
		}
		keyVecs[i] = v
	}
	return keyVecs, nil
}

func (h *naiveAgg) group(keyVecs []storage.Vector, row int, buf *strings.Builder) *naiveAggState {
	key, keyVals := naiveGroupKeyAt(keyVecs, row, buf)
	st := h.groups[key]
	if st == nil {
		st = newNaiveAggState(keyVals, len(h.specs))
		h.groups[key] = st
	}
	return st
}

// Push folds raw input rows, as HashAgg.Push does.
func (h *naiveAgg) Push(b *storage.Batch) error {
	keyVecs, err := h.keyVecs(b)
	if err != nil {
		return err
	}
	vals := make([]storage.Vector, len(h.specs))
	for i, sp := range h.specs {
		if sp.Expr == nil {
			continue
		}
		if vals[i], err = sp.Expr.Eval(b); err != nil {
			return err
		}
	}
	var keyBuf strings.Builder
	for row := 0; row < b.Len(); row++ {
		st := h.group(keyVecs, row, &keyBuf)
		for i, sp := range h.specs {
			var x float64
			if sp.Expr != nil {
				x = naiveAsFloat(vals[i], row)
			}
			st.counts[i]++
			st.sums[i] += x
			if x < st.mins[i] {
				st.mins[i] = x
			}
			if x > st.maxs[i] {
				st.maxs[i] = x
			}
			st.seen[i] = true
		}
	}
	return nil
}

// pushPartial folds partial-state rows, as MergeHashAgg.Push does.
func (h *naiveAgg) pushPartial(b *storage.Batch) error {
	keyVecs, err := h.keyVecs(b)
	if err != nil {
		return err
	}
	var keyBuf strings.Builder
	for row := 0; row < b.Len(); row++ {
		st := h.group(keyVecs, row, &keyBuf)
		ci := len(h.groupBy)
		for i, sp := range h.specs {
			switch sp.Func {
			case Count:
				st.counts[i] += b.Vecs[ci].I64[row]
			case Sum:
				st.sums[i] += b.Vecs[ci].F64[row]
			case Min:
				if x := b.Vecs[ci].F64[row]; x < st.mins[i] {
					st.mins[i] = x
				}
			case Max:
				if x := b.Vecs[ci].F64[row]; x > st.maxs[i] {
					st.maxs[i] = x
				}
			case Avg:
				st.sums[i] += b.Vecs[ci].F64[row]
				ci++
				st.counts[i] += b.Vecs[ci].I64[row]
			}
			ci++
			st.seen[i] = true
		}
	}
	return nil
}

func (h *naiveAgg) Finish() error {
	if !h.partial && len(h.groupBy) == 0 && len(h.groups) == 0 {
		h.groups[""] = newNaiveAggState(nil, len(h.specs))
	}
	keys := make([]string, 0, len(h.groups))
	for k := range h.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	zeroIfUnseen := func(v float64, seen bool) float64 {
		if !seen {
			return 0
		}
		return v
	}
	out := storage.NewBatch(h.outSchema, storage.PageRows)
	for _, k := range keys {
		st := h.groups[k]
		row := append([]any{}, st.keyVals...)
		for i, sp := range h.specs {
			switch {
			case sp.Func == Count:
				row = append(row, st.counts[i])
			case sp.Func == Sum:
				row = append(row, st.sums[i])
			case sp.Func == Avg && h.partial:
				row = append(row, st.sums[i], st.counts[i])
			case sp.Func == Avg && st.counts[i] == 0:
				row = append(row, 0.0)
			case sp.Func == Avg:
				row = append(row, st.sums[i]/float64(st.counts[i]))
			case sp.Func == Min && h.partial:
				row = append(row, st.mins[i])
			case sp.Func == Max && h.partial:
				row = append(row, st.maxs[i])
			case sp.Func == Min:
				row = append(row, zeroIfUnseen(st.mins[i], st.seen[i]))
			case sp.Func == Max:
				row = append(row, zeroIfUnseen(st.maxs[i], st.seen[i]))
			}
		}
		if err := out.AppendRow(row...); err != nil {
			return err
		}
		if out.Len() >= storage.PageRows {
			if err := h.emit(out); err != nil {
				return err
			}
			out = storage.NewBatch(h.outSchema, storage.PageRows)
		}
	}
	if out.Len() > 0 {
		return h.emit(out)
	}
	return nil
}

// naiveHashIndex is the bucket-per-key join index the flat one replaced.
func naiveHashIndex(keys []int64) map[int64][]int {
	index := map[int64][]int{}
	for i, k := range keys {
		index[k] = append(index[k], i)
	}
	return index
}

// naiveFootprint is the size formula FootprintBytes has always reported.
func naiveFootprint(rows *storage.Batch, index map[int64][]int) int64 {
	bytes := int64(rows.EstimatedBytes())
	for _, r := range index {
		bytes += 16 + 8*int64(len(r))
	}
	return bytes
}
