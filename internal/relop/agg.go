package relop

import (
	"fmt"

	"repro/internal/storage"
)

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	// Sum accumulates Σx as float64.
	Sum AggFunc = iota
	// Count counts rows; Expr may be nil.
	Count
	// Avg computes Σx / n.
	Avg
	// Min keeps the smallest value.
	Min
	// Max keeps the largest value.
	Max
)

func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggSpec describes one aggregate output column.
type AggSpec struct {
	// Func is the aggregate function.
	Func AggFunc
	// Expr is the aggregated expression (nil allowed for Count).
	Expr Expr
	// As names the output column.
	As string
}

// HashAgg is a hash-based grouping aggregate. It is a stop-&-go operator:
// Push accumulates, Finish emits one row per group (deterministically
// ordered by group key for reproducibility). In partial mode (see
// NewPartialHashAgg) Finish instead emits raw accumulator state for a
// downstream MergeHashAgg to combine — the clone-local half of a
// partitioned parallel aggregation.
type HashAgg struct {
	outSchema storage.Schema
	tbl       *aggTable
	scratch   exprScratch
	emit      Emit
	partial   bool
	done      bool
}

// NewHashAgg builds a grouping aggregate. groupBy may be empty for a global
// aggregate (which emits exactly one row even over empty input, matching
// SQL semantics for COUNT/SUM over empty tables).
func NewHashAgg(in storage.Schema, groupBy []string, specs []AggSpec, emit Emit) (*HashAgg, error) {
	return NewHashAggSized(in, groupBy, specs, 0, emit)
}

// NewHashAggSized is NewHashAgg with a group-count hint: the group table is
// pre-sized to the estimated number of distinct keys, sparing the incremental
// rehashes a growing table pays. Advisory only — zero or a wrong estimate
// never affects results.
func NewHashAggSized(in storage.Schema, groupBy []string, specs []AggSpec, hint int, emit Emit) (*HashAgg, error) {
	var outCols []storage.Column
	for _, g := range groupBy {
		i, err := in.Index(g)
		if err != nil {
			return nil, err
		}
		outCols = append(outCols, in.Cols[i])
	}
	for _, sp := range specs {
		t := storage.Float64
		switch sp.Func {
		case Count:
			t = storage.Int64
			// Push never evaluates it (no input is null), so check it here.
			if sp.Expr != nil {
				if _, err := sp.Expr.Type(in); err != nil {
					return nil, err
				}
			}
		case Sum, Avg, Min, Max:
			if sp.Expr == nil {
				return nil, fmt.Errorf("%w: %s requires an expression", ErrType, sp.Func)
			}
			et, err := sp.Expr.Type(in)
			if err != nil {
				return nil, err
			}
			if et == storage.String {
				return nil, fmt.Errorf("%w: %s over string expression", ErrType, sp.Func)
			}
		default:
			return nil, fmt.Errorf("%w: unknown aggregate %d", ErrType, int(sp.Func))
		}
		outCols = append(outCols, storage.Column{Name: sp.As, Type: t})
	}
	out, err := storage.NewSchema(outCols...)
	if err != nil {
		return nil, err
	}
	if hint < 0 {
		hint = 0
	}
	return &HashAgg{
		outSchema: out,
		tbl:       newAggTable(groupBy, outCols[:len(groupBy)], specs, hint),
		emit:      emit,
	}, nil
}

// OutSchema implements Operator.
func (h *HashAgg) OutSchema() storage.Schema { return h.outSchema }

// ConsumesInput reports that Push folds each batch into accumulators.
func (h *HashAgg) ConsumesInput() bool { return true }

// Push implements Operator: resolves the page to group ids, then folds each
// distinct accumulator's input with one loop per accumulator. An aggregate
// whose sums or counts another owns evaluates and folds nothing of them.
func (h *HashAgg) Push(b *storage.Batch) error {
	if h.done {
		return ErrFinished
	}
	ids, err := h.tbl.resolve(b)
	if err != nil {
		return err
	}
	h.scratch.reset()
	for i, sp := range h.tbl.specs {
		acc := &h.tbl.accs[i]
		if acc.counts != nil {
			countRows(acc.counts, ids)
		}
		if acc.sums == nil && acc.mins == nil && acc.maxs == nil {
			continue
		}
		o, err := operandOf(sp.Expr, b, &h.scratch)
		if err != nil {
			return err
		}
		switch {
		case o.konst:
			xs := h.scratch.vector(storage.Float64, len(ids)).F64
			c := o.float()
			for r := range xs {
				xs[r] = c
			}
			fold(acc, ids, xs)
		case o.typ == storage.Float64:
			fold(acc, ids, o.vec.F64)
		default:
			fold(acc, ids, o.vec.I64)
		}
	}
	return nil
}

// fold accumulates one aggregate's input column into the one value
// accumulator it keeps, converting each value to float64 as it is read.
func fold[T number](acc *aggAcc, ids []int32, xs []T) {
	switch {
	case acc.sums != nil:
		addTo(acc.sums, ids, xs)
	case acc.mins != nil:
		minOf(acc.mins, ids, xs)
	case acc.maxs != nil:
		maxOf(acc.maxs, ids, xs)
	}
}

// Finish implements Operator: emits one row per group, ordered by key. In
// partial mode it emits raw accumulator state instead (and nothing at all
// over empty input — the merge side synthesizes the empty-global row).
func (h *HashAgg) Finish() error {
	if h.done {
		return ErrFinished
	}
	h.done = true
	if h.partial {
		return h.tbl.emitPartialState(h.outSchema, h.emit)
	}
	return h.tbl.emitFinalRows(h.outSchema, h.emit)
}
