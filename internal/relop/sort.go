package relop

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/storage"
)

// SortKey describes one sort column.
type SortKey struct {
	// Column is the sort column name.
	Column string
	// Desc sorts descending when true.
	Desc bool
}

// Sort is a stop-&-go operator: it buffers all input, sorts by the keys,
// and emits ordered batches on Finish. This is exactly the operator class
// Section 5.2 models as decoupling the rates below it from those above.
type Sort struct {
	keys   []SortKey
	schema storage.Schema
	buf    *storage.Batch
	emit   Emit
	done   bool
}

// NewSort builds a sort over the given schema.
func NewSort(schema storage.Schema, keys []SortKey, emit Emit) (*Sort, error) {
	return NewSortSized(schema, keys, 0, emit)
}

// NewSortSized is NewSort with a row-count hint pre-sizing the sort buffer to
// the estimated input cardinality, so a well-estimated sort buffers without
// reallocating. Advisory only.
func NewSortSized(schema storage.Schema, keys []SortKey, hint int, emit Emit) (*Sort, error) {
	for _, k := range keys {
		if _, err := schema.Index(k.Column); err != nil {
			return nil, err
		}
	}
	if hint < 0 {
		hint = 0
	}
	return &Sort{
		keys:   keys,
		schema: schema,
		buf:    storage.NewBatch(schema, hint),
		emit:   emit,
	}, nil
}

// OutSchema implements Operator.
func (s *Sort) OutSchema() storage.Schema { return s.schema }

// ConsumesInput reports that Push buffers a vector-level copy of each batch.
func (s *Sort) ConsumesInput() bool { return true }

// Push implements Operator: buffers rows (one vector-level copy per column).
func (s *Sort) Push(b *storage.Batch) error {
	if s.done {
		return ErrFinished
	}
	s.buf.AppendBatch(b)
	return nil
}

// Finish implements Operator: sorts and emits.
func (s *Sort) Finish() error {
	if s.done {
		return ErrFinished
	}
	s.done = true
	n := s.buf.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	keyVecs := make([]storage.Vector, len(s.keys))
	for i, k := range s.keys {
		keyVecs[i] = s.buf.MustCol(k.Column)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for i, k := range s.keys {
			c := compareAt(keyVecs[i], idx[a], idx[b])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for lo := 0; lo < n; lo += storage.PageRows {
		hi := min(lo+storage.PageRows, n)
		if err := s.emit(s.buf.Gather(idx[lo:hi])); err != nil {
			return err
		}
	}
	return nil
}

// compareAt orders two rows of one vector: -1, 0, or 1.
func compareAt(v storage.Vector, a, b int) int { return compareAt2(v, a, v, b) }

// SortMerge is the fan-in half of a partitioned sort: each pushed batch
// must itself be ordered by the keys (every page a Sort clone emits is),
// and Finish k-way merges the buffered runs into globally ordered output.
// SortMerge over clone outputs ≡ one serial Sort over the whole input
// (stability across runs follows arrival order, which is all a parallel
// plan can promise anyway).
type SortMerge struct {
	keys   []SortKey
	schema storage.Schema
	runs   []*storage.Batch
	emit   Emit
	done   bool
}

// NewSortMerge builds a merge over the given schema and keys.
func NewSortMerge(schema storage.Schema, keys []SortKey, emit Emit) (*SortMerge, error) {
	for _, k := range keys {
		if _, err := schema.Index(k.Column); err != nil {
			return nil, err
		}
	}
	return &SortMerge{keys: keys, schema: schema, emit: emit}, nil
}

// OutSchema implements Operator.
func (s *SortMerge) OutSchema() storage.Schema { return s.schema }

// Push implements Operator: buffers one sorted run.
func (s *SortMerge) Push(b *storage.Batch) error {
	if s.done {
		return ErrFinished
	}
	if b.Len() > 0 {
		s.runs = append(s.runs, b)
	}
	return nil
}

// Finish implements Operator: k-way merges the runs and emits ordered
// batches.
func (s *SortMerge) Finish() error {
	if s.done {
		return ErrFinished
	}
	s.done = true
	type cursor struct {
		run *storage.Batch
		key []storage.Vector // key column vectors of run
		row int
		ord int // run arrival index, the deterministic tie-break
	}
	// less orders heap entries by sort keys, breaking ties by run arrival
	// order so the merge is deterministic.
	heap := make([]*cursor, 0, len(s.runs))
	less := func(a, b *cursor) bool {
		for i, k := range s.keys {
			c := compareAt2(a.key[i], a.row, b.key[i], b.row)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return a.ord < b.ord
	}
	push := func(c *cursor) {
		heap = append(heap, c)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() *cursor {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && less(heap[l], heap[min]) {
				min = l
			}
			if r < len(heap) && less(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				break
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
		return top
	}
	for ri, run := range s.runs {
		c := &cursor{run: run, key: make([]storage.Vector, len(s.keys)), ord: ri}
		for i, k := range s.keys {
			c.key[i] = run.MustCol(k.Column)
		}
		push(c)
	}
	out := storage.NewBatch(s.schema, storage.PageRows)
	flush := func() error {
		if out.Len() == 0 {
			return nil
		}
		err := s.emit(out)
		out = storage.NewBatch(s.schema, storage.PageRows)
		return err
	}
	for len(heap) > 0 {
		c := pop()
		if len(heap) == 0 {
			// Single run left: bulk-copy its tail in page-size chunks.
			for lo := c.row; lo < c.run.Len(); {
				take := min(storage.PageRows-out.Len(), c.run.Len()-lo)
				out.AppendBatch(c.run.Slice(lo, lo+take))
				lo += take
				if out.Len() >= storage.PageRows {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			break
		}
		out.AppendBatchRow(c.run, c.row)
		c.row++
		if c.row < c.run.Len() {
			push(c)
		}
		if out.Len() >= storage.PageRows {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	s.runs = nil
	return flush()
}

// compareAt2 orders one row of vector a against one row of vector b (same
// type): -1, 0, or 1.
func compareAt2(a storage.Vector, ai int, b storage.Vector, bi int) int {
	switch a.Type {
	case storage.Int64, storage.Date:
		switch {
		case a.I64[ai] < b.I64[bi]:
			return -1
		case a.I64[ai] > b.I64[bi]:
			return 1
		}
	case storage.Float64:
		switch {
		case a.F64[ai] < b.F64[bi]:
			return -1
		case a.F64[ai] > b.F64[bi]:
			return 1
		}
	case storage.String:
		return strings.Compare(a.Str[ai], b.Str[bi])
	}
	return 0
}

// TopK keeps the k smallest (or largest) rows by the sort keys. It bounds
// memory where a full Sort would buffer everything.
type TopK struct {
	inner *Sort
	k     int
	emit  Emit
}

// NewTopK builds a TopK operator.
func NewTopK(schema storage.Schema, keys []SortKey, k int, emit Emit) (*TopK, error) {
	if k <= 0 {
		return nil, fmt.Errorf("relop: TopK requires k > 0, got %d", k)
	}
	t := &TopK{k: k, emit: emit}
	collected := 0
	inner, err := NewSort(schema, keys, func(b *storage.Batch) error {
		if collected >= k {
			return nil
		}
		take := b.Len()
		if collected+take > k {
			take = k - collected
		}
		collected += take
		return emit(b.Slice(0, take))
	})
	if err != nil {
		return nil, err
	}
	t.inner = inner
	return t, nil
}

// OutSchema implements Operator.
func (t *TopK) OutSchema() storage.Schema { return t.inner.OutSchema() }

// Push implements Operator.
func (t *TopK) Push(b *storage.Batch) error { return t.inner.Push(b) }

// Finish implements Operator.
func (t *TopK) Finish() error { return t.inner.Finish() }
