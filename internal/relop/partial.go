package relop

import (
	"fmt"

	"repro/internal/storage"
)

// This file implements the partial/merge split of the grouping aggregate,
// the operator-level half of intra-query parallelism: d partitioned clones
// each run a partial aggregate over their share of the input and emit raw
// accumulator state; the clone outputs fan in through a single MergeHashAgg
// that combines the states and emits exactly what one serial HashAgg over
// the whole input would have. The split is exact (Avg carries its sum and
// count separately), so partial-over-partitions + merge ≡ serial.

// avgCountSuffix names the hidden count column an Avg aggregate adds to the
// partial layout.
const avgCountSuffix = ":count"

// PartialAggSchema returns the schema of the partial-state batches a
// partial aggregate emits: the group-by columns followed by one accumulator
// column per aggregate — two for Avg, whose sum and count must travel
// separately to merge exactly.
func PartialAggSchema(in storage.Schema, groupBy []string, specs []AggSpec) (storage.Schema, error) {
	var cols []storage.Column
	for _, g := range groupBy {
		i, err := in.Index(g)
		if err != nil {
			return storage.Schema{}, err
		}
		cols = append(cols, in.Cols[i])
	}
	for _, sp := range specs {
		switch sp.Func {
		case Count:
			cols = append(cols, storage.Column{Name: sp.As, Type: storage.Int64})
		case Sum, Min, Max:
			cols = append(cols, storage.Column{Name: sp.As, Type: storage.Float64})
		case Avg:
			cols = append(cols,
				storage.Column{Name: sp.As, Type: storage.Float64},
				storage.Column{Name: sp.As + avgCountSuffix, Type: storage.Int64})
		default:
			return storage.Schema{}, fmt.Errorf("%w: unknown aggregate %d", ErrType, int(sp.Func))
		}
	}
	return storage.NewSchema(cols...)
}

// NewPartialHashAgg builds the clone-local form of NewHashAgg: it
// accumulates exactly like the serial aggregate but Finish emits raw
// accumulator state in PartialAggSchema layout — one row per group, nothing
// at all over empty input (the merge side synthesizes the empty-global
// row). Feed its output to a MergeHashAgg built with the same arguments.
func NewPartialHashAgg(in storage.Schema, groupBy []string, specs []AggSpec, emit Emit) (*HashAgg, error) {
	h, err := NewHashAgg(in, groupBy, specs, emit)
	if err != nil {
		return nil, err
	}
	ps, err := PartialAggSchema(in, groupBy, specs)
	if err != nil {
		return nil, err
	}
	h.partial = true
	h.outSchema = ps
	return h, nil
}

// emitPartialState streams raw accumulator rows in PartialAggSchema order.
func (t *aggTable) emitPartialState(outSchema storage.Schema, emit Emit) error {
	return t.emitPages(outSchema, emit, func(vecs []storage.Vector, chunk []int) []storage.Vector {
		for i, sp := range t.specs {
			a := &t.accs[i]
			switch sp.Func {
			case Count:
				vecs = append(vecs, gatherInts(t.countsOf(i), chunk))
			case Sum:
				vecs = append(vecs, gatherFloats(t.sumsOf(i), chunk))
			case Min:
				vecs = append(vecs, gatherFloats(a.mins, chunk))
			case Max:
				vecs = append(vecs, gatherFloats(a.maxs, chunk))
			case Avg:
				vecs = append(vecs, gatherFloats(t.sumsOf(i), chunk), gatherInts(t.countsOf(i), chunk))
			}
		}
		return vecs
	})
}

// MergeHashAgg is the fan-in half of a partitioned aggregation: it consumes
// partial-state batches (as emitted by NewPartialHashAgg instances over
// disjoint partitions of the input), combines states per group, and emits
// final rows identical to one serial NewHashAgg over the whole input —
// including the single zero row a global aggregate owes over empty input.
type MergeHashAgg struct {
	outSchema storage.Schema // identical to NewHashAgg's
	tbl       *aggTable
	emit      Emit
	done      bool
}

// NewMergeHashAgg builds the merge aggregate. in, groupBy, and specs are
// the same arguments the serial (and partial) aggregate was built with; the
// merge reads the PartialAggSchema layout they imply and emits the serial
// aggregate's output schema.
func NewMergeHashAgg(in storage.Schema, groupBy []string, specs []AggSpec, emit Emit) (*MergeHashAgg, error) {
	// The serial constructor performs all spec validation, derives the final
	// output schema and builds the group table.
	serial, err := NewHashAgg(in, groupBy, specs, nil)
	if err != nil {
		return nil, err
	}
	return &MergeHashAgg{
		outSchema: serial.outSchema,
		tbl:       serial.tbl,
		emit:      emit,
	}, nil
}

// OutSchema implements Operator.
func (m *MergeHashAgg) OutSchema() storage.Schema { return m.outSchema }

// ConsumesInput reports that Push folds partial states into accumulators.
func (m *MergeHashAgg) ConsumesInput() bool { return true }

// Push implements Operator: combines one batch of partial states.
func (m *MergeHashAgg) Push(b *storage.Batch) error {
	if m.done {
		return ErrFinished
	}
	// State columns follow the key columns positionally: one per aggregate,
	// two for Avg.
	need := len(m.tbl.groupBy) + len(m.tbl.specs)
	for _, sp := range m.tbl.specs {
		if sp.Func == Avg {
			need++
		}
	}
	if need > len(b.Vecs) {
		return fmt.Errorf("%w: partial batch has %d columns, need %d", ErrType, len(b.Vecs), need)
	}
	ids, err := m.tbl.resolve(b)
	if err != nil {
		return err
	}
	// Aggregates that share an owner carry equal state columns (the partial
	// side emits the owner's), so only the owner's column is folded.
	ci := len(m.tbl.groupBy)
	for i, sp := range m.tbl.specs {
		acc := &m.tbl.accs[i]
		state, count := &b.Vecs[ci], &b.Vecs[ci]
		ci++
		switch sp.Func {
		case Min:
			minOf(acc.mins, ids, state.F64)
		case Max:
			maxOf(acc.maxs, ids, state.F64)
		case Avg:
			count = &b.Vecs[ci]
			ci++
		}
		if acc.sums != nil {
			addTo(acc.sums, ids, state.F64)
		}
		if acc.counts != nil {
			addTo(acc.counts, ids, count.I64)
		}
	}
	return nil
}

// Finish implements Operator: emits final rows, ordered by group key.
func (m *MergeHashAgg) Finish() error {
	if m.done {
		return ErrFinished
	}
	m.done = true
	return m.tbl.emitFinalRows(m.outSchema, m.emit)
}
