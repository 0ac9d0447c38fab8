package relop

import (
	"fmt"

	"repro/internal/storage"
)

// Emit is the output callback through which operators hand completed batches
// to their consumer. The staged engine points Emit at a stage queue; tests
// point it at a collector.
type Emit func(*storage.Batch) error

// Operator is a push-based pipelined operator: the producer calls Push for
// each input batch and Finish exactly once when the input is exhausted.
// Stop-&-go operators (Sort, hash-join build) buffer in Push and do their
// work in Finish.
type Operator interface {
	// OutSchema returns the schema of emitted batches.
	OutSchema() storage.Schema
	// Push consumes one input batch.
	Push(b *storage.Batch) error
	// Finish flushes any buffered state and emits remaining output.
	Finish() error
}

// Consuming marks operators whose Push neither retains nor forwards the
// input batch — they copy whatever they need (aggregate accumulators,
// buffered row copies, fresh output vectors) before returning. The engine
// may release such an operator's reader claim on a shared page the moment
// Push returns, which lets a sibling consumer's Writable take the original
// instead of cloning. Pass-through operators (Filter, Project) must NOT
// implement this: they may hand the input batch — or vectors aliasing it —
// downstream, where the claim still guards it.
type Consuming interface {
	// ConsumesInput reports that pushed batches never escape the operator.
	ConsumesInput() bool
}

// Consumes reports whether op declares itself input-consuming.
func Consumes(op any) bool {
	c, ok := op.(Consuming)
	return ok && c.ConsumesInput()
}

// Collect returns an Emit that appends emitted rows into a single batch,
// plus a getter for the result. Convenient for tests and examples.
func Collect(s storage.Schema) (Emit, func() *storage.Batch) {
	return CollectSized(s, 0)
}

// CollectSized is Collect with a row-count hint pre-sizing the result batch.
func CollectSized(s storage.Schema, hint int) (Emit, func() *storage.Batch) {
	if hint < 0 {
		hint = 0
	}
	out := storage.NewBatch(s, hint)
	emit := func(b *storage.Batch) error {
		out.AppendBatch(b)
		return nil
	}
	return emit, func() *storage.Batch { return out }
}

// Scan is a source operator: it reads a base table in batches, applies a
// predicate, projects columns, and emits. It has no Push input; call Run.
type Scan struct {
	table     *storage.Table
	pred      Pred
	outSchema storage.Schema
	cols      []string
	batchRows int
	emit      Emit
}

// NewScan builds a scan over table emitting the named columns (all columns
// if cols is nil) for rows satisfying pred (all rows if pred is nil),
// batchRows base rows per page (storage.PageRows if batchRows <= 0).
func NewScan(table *storage.Table, pred Pred, cols []string, batchRows int, emit Emit) (*Scan, error) {
	s := table.Schema()
	if cols == nil {
		for _, c := range s.Cols {
			cols = append(cols, c.Name)
		}
	}
	out, err := s.Project(cols...)
	if err != nil {
		return nil, err
	}
	if pred == nil {
		pred = True{}
	}
	if batchRows <= 0 {
		batchRows = storage.PageRows
	}
	return &Scan{table: table, pred: pred, outSchema: out, cols: cols, batchRows: batchRows, emit: emit}, nil
}

// OutSchema implements Operator.
func (s *Scan) OutSchema() storage.Schema { return s.outSchema }

// Push implements Operator; scans are sources and accept no input.
func (s *Scan) Push(*storage.Batch) error {
	return fmt.Errorf("relop: Scan is a source; use Run")
}

// Finish implements Operator.
func (s *Scan) Finish() error { return nil }

// Run executes the scan to completion.
func (s *Scan) Run() error {
	var runErr error
	var selBuf []int
	s.table.Scan(s.batchRows, func(b *storage.Batch) bool {
		sel, err := s.pred.Filter(b, FillSel(selBuf, b.Len()))
		if err != nil {
			runErr = err
			return false
		}
		selBuf = sel // retain the backing array for the next page
		if len(sel) == 0 {
			return true
		}
		projected, err := projectRows(b, s.cols, s.outSchema, sel)
		if err != nil {
			runErr = err
			return false
		}
		if err := s.emit(projected); err != nil {
			runErr = err
			return false
		}
		return true
	})
	return runErr
}

// projectRows gathers sel rows of the named columns into a fresh batch.
func projectRows(b *storage.Batch, cols []string, out storage.Schema, sel []int) (*storage.Batch, error) {
	res := &storage.Batch{Schema: out, Vecs: make([]storage.Vector, len(cols))}
	for i, name := range cols {
		v, err := b.Col(name)
		if err != nil {
			return nil, err
		}
		res.Vecs[i] = v.Gather(sel)
	}
	return res, nil
}

// Filter applies a predicate to flowing batches.
type Filter struct {
	pred   Pred
	schema storage.Schema
	emit   Emit
	sel    []int // reused selection buffer; emitted batches never alias it
	done   bool
}

// NewFilter builds a filter with the given input/output schema.
func NewFilter(pred Pred, schema storage.Schema, emit Emit) *Filter {
	if pred == nil {
		pred = True{}
	}
	return &Filter{pred: pred, schema: schema, emit: emit}
}

// OutSchema implements Operator.
func (f *Filter) OutSchema() storage.Schema { return f.schema }

// Push implements Operator.
func (f *Filter) Push(b *storage.Batch) error {
	if f.done {
		return ErrFinished
	}
	sel, err := f.pred.Filter(b, FillSel(f.sel, b.Len()))
	if err != nil {
		return err
	}
	f.sel = sel
	if len(sel) == 0 {
		return nil
	}
	if len(sel) == b.Len() {
		return f.emit(b)
	}
	return f.emit(b.Gather(sel))
}

// Finish implements Operator.
func (f *Filter) Finish() error {
	f.done = true
	return nil
}

// ProjectCol names one output column of a projection.
type ProjectCol struct {
	// As is the output column name.
	As string
	// Expr computes the column.
	Expr Expr
}

// Project evaluates scalar expressions over flowing batches.
type Project struct {
	cols      []ProjectCol
	outSchema storage.Schema
	emit      Emit
	scratch   exprScratch // intermediates only; emitted vectors are fresh
	done      bool
}

// NewProject builds a projection; the output schema is derived from the
// expressions against the given input schema.
func NewProject(in storage.Schema, cols []ProjectCol, emit Emit) (*Project, error) {
	outCols := make([]storage.Column, len(cols))
	for i, c := range cols {
		t, err := c.Expr.Type(in)
		if err != nil {
			return nil, err
		}
		outCols[i] = storage.Column{Name: c.As, Type: t}
	}
	out, err := storage.NewSchema(outCols...)
	if err != nil {
		return nil, err
	}
	return &Project{cols: cols, outSchema: out, emit: emit}, nil
}

// OutSchema implements Operator.
func (p *Project) OutSchema() storage.Schema { return p.outSchema }

// Push implements Operator.
func (p *Project) Push(b *storage.Batch) error {
	if p.done {
		return ErrFinished
	}
	p.scratch.reset()
	out := &storage.Batch{Schema: p.outSchema, Vecs: make([]storage.Vector, len(p.cols))}
	for i, c := range p.cols {
		v, err := evalOwned(c.Expr, b, &p.scratch)
		if err != nil {
			return err
		}
		// Date columns keep their declared type even though expressions
		// produce Int64 vectors.
		v.Type = p.outSchema.Cols[i].Type
		out.Vecs[i] = v
	}
	return p.emit(out)
}

// Finish implements Operator.
func (p *Project) Finish() error {
	p.done = true
	return nil
}
