package storage

import (
	"fmt"
	"sync/atomic"
)

// Batch is a column-major group of tuples flowing between operators. All
// vectors have the same length.
type Batch struct {
	// Schema describes the columns.
	Schema Schema
	// Vecs holds one vector per schema column.
	Vecs []Vector
	// shared counts extra readers beyond the owner when the batch is fanned
	// out read-only to several consumers (see MarkShared / Writable /
	// Release); everShared records that the batch was fanned out at least
	// once, so Writable can classify its zero-claim path as a move. It is
	// atomic because a bus-shared build table is marked by every shard's
	// probers, each under its own engine's lock only.
	shared     atomic.Int32
	everShared atomic.Bool
	// poolable marks a batch whose column storage came from the page pool
	// (GetPage); a last-owner Release returns it there. The CAS on this flag
	// guarantees at-most-once recycling.
	poolable atomic.Bool
}

// NewBatch allocates an empty batch with capacity hint n rows.
func NewBatch(s Schema, n int) *Batch {
	b := &Batch{Schema: s, Vecs: make([]Vector, s.Arity())}
	for i, c := range s.Cols {
		b.Vecs[i] = NewVector(c.Type, n)
	}
	return b
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// Col returns the vector of the named column.
func (b *Batch) Col(name string) (Vector, error) {
	i, err := b.Schema.Index(name)
	if err != nil {
		return Vector{}, err
	}
	return b.Vecs[i], nil
}

// MustCol is Col that panics on error.
func (b *Batch) MustCol(name string) Vector {
	v, err := b.Col(name)
	if err != nil {
		panic(err)
	}
	return v
}

// AppendRow appends one tuple given as one value per column: int64 for
// Int64/Date columns, float64 for Float64, string for String.
func (b *Batch) AppendRow(vals ...any) error {
	if len(vals) != b.Schema.Arity() {
		return fmt.Errorf("%w: %d values for %d columns", ErrRowShape, len(vals), b.Schema.Arity())
	}
	for i, c := range b.Schema.Cols {
		switch c.Type {
		case Int64, Date:
			x, ok := vals[i].(int64)
			if !ok {
				return fmt.Errorf("%w: column %q wants int64, got %T", ErrTypeMism, c.Name, vals[i])
			}
			b.Vecs[i].AppendInt(x)
		case Float64:
			x, ok := vals[i].(float64)
			if !ok {
				return fmt.Errorf("%w: column %q wants float64, got %T", ErrTypeMism, c.Name, vals[i])
			}
			b.Vecs[i].AppendFloat(x)
		case String:
			x, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("%w: column %q wants string, got %T", ErrTypeMism, c.Name, vals[i])
			}
			b.Vecs[i].AppendString(x)
		}
	}
	return nil
}

// AppendBatchRow appends row i of src, which must share the schema layout.
func (b *Batch) AppendBatchRow(src *Batch, i int) {
	for c := range b.Vecs {
		b.Vecs[c].AppendFrom(src.Vecs[c], i)
	}
}

// AppendBatch appends every row of src, which must share the schema layout,
// with one vector-level copy per column — the bulk form of AppendBatchRow
// for collectors and merge fan-in paths.
func (b *Batch) AppendBatch(src *Batch) {
	for c := range b.Vecs {
		b.Vecs[c].AppendVector(src.Vecs[c])
	}
}

// Slice returns the tuple range [lo, hi) as a batch sharing storage with b.
func (b *Batch) Slice(lo, hi int) *Batch {
	out := &Batch{Schema: b.Schema, Vecs: make([]Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Slice(lo, hi)
	}
	return out
}

// Gather returns a new batch holding the rows selected by idx, in order.
func (b *Batch) Gather(idx []int) *Batch {
	out := &Batch{Schema: b.Schema, Vecs: make([]Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Gather(idx)
	}
	return out
}

// EstimatedBytes approximates the encoded size of the batch, used to pack
// batches into fixed-size pages.
func (b *Batch) EstimatedBytes() int {
	bytes := 0
	for i, c := range b.Schema.Cols {
		if c.Type.Fixed() {
			bytes += 8 * b.Vecs[i].Len()
			continue
		}
		for _, s := range b.Vecs[i].Str {
			bytes += 4 + len(s)
		}
	}
	return bytes
}

// Validate checks all vectors agree on length and type.
func (b *Batch) Validate() error {
	if len(b.Vecs) != b.Schema.Arity() {
		return fmt.Errorf("%w: %d vectors for %d columns", ErrRowShape, len(b.Vecs), b.Schema.Arity())
	}
	n := b.Len()
	for i, c := range b.Schema.Cols {
		if b.Vecs[i].Type != c.Type {
			return fmt.Errorf("%w: column %q is %v, vector is %v", ErrTypeMism, c.Name, c.Type, b.Vecs[i].Type)
		}
		if b.Vecs[i].Len() != n {
			return fmt.Errorf("%w: column %q has %d rows, batch has %d", ErrRowShape, c.Name, b.Vecs[i].Len(), n)
		}
	}
	return nil
}
