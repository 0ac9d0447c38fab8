package storage

import (
	"sync"
	"sync/atomic"
)

// This file implements the page pool: scan sources allocate result pages
// through GetPage, and Release returns a page's column storage to the pool
// when the releasing task is the page's last owner. Recycling is strictly
// opt-in (only GetPage batches carry the poolable mark) and strictly
// single-owner: a page that was ever fanned out via MarkShared is never
// recycled, because reader claims prove nothing about lingering aliases held
// by consumers that adopted the page, and Writable's zero-copy move path
// clears the mark because the adopter keeps the storage (typically as a
// query result that outlives the pipeline).

// slicePool recycles one payload-slice type. Slices return with length
// reset to zero and whatever capacity they grew to, so the pool converges
// on the workload's page size without a fixed size class. A sync.Pool holds
// pointers, so each pooled slice travels in a *[]T box; get hands the
// emptied box to a second pool and put takes it back from there, so a
// recycle allocates nothing once both pools are warm.
type slicePool[T any] struct{ full, boxes sync.Pool }

func (sp *slicePool[T]) get(n int) []T {
	if v, _ := sp.full.Get().(*[]T); v != nil {
		poolHits.Add(1)
		s := (*v)[:0]
		*v = nil
		sp.boxes.Put(v)
		return s
	}
	return make([]T, 0, n)
}

func (sp *slicePool[T]) put(s []T) {
	v, _ := sp.boxes.Get().(*[]T)
	if v == nil {
		v = new([]T)
	}
	*v = s
	sp.full.Put(v)
}

var (
	i64Pool slicePool[int64]
	f64Pool slicePool[float64]
	strPool slicePool[string]

	poolGets atomic.Int64
	poolHits atomic.Int64
	poolPuts atomic.Int64
)

// PagePoolStats reports cumulative page-pool traffic process-wide: GetPage
// calls, column allocations satisfied from the pool rather than the heap,
// and pages recycled by a last-owner Release.
func PagePoolStats() (gets, hits, puts int64) {
	return poolGets.Load(), poolHits.Load(), poolPuts.Load()
}

// GetPage returns an empty batch with capacity hint n whose column storage
// is drawn from the page pool when available. The batch is marked poolable:
// when its last owner calls Release — and the page was never fanned out —
// the storage goes back to the pool for the next GetPage.
func GetPage(s Schema, n int) *Batch {
	poolGets.Add(1)
	b := &Batch{Schema: s, Vecs: make([]Vector, s.Arity())}
	for i, c := range s.Cols {
		v := Vector{Type: c.Type}
		switch c.Type {
		case Int64, Date:
			v.I64 = i64Pool.get(n)
		case Float64:
			v.F64 = f64Pool.get(n)
		case String:
			v.Str = strPool.get(n)
		}
		b.Vecs[i] = v
	}
	b.poolable.Store(true)
	return b
}

// recycle returns the batch's column storage to the pool. Caller has already
// claimed the poolable mark (CAS true→false), so a page recycles at most
// once however many times Release races. Vecs is nilled so any
// use-after-release fails loudly instead of reading recycled memory.
func (b *Batch) recycle() {
	poolPuts.Add(1)
	for i := range b.Vecs {
		v := &b.Vecs[i]
		switch v.Type {
		case Int64, Date:
			i64Pool.put(v.I64)
		case Float64:
			f64Pool.put(v.F64)
		case String:
			// Drop string references across the full capacity so pooled pages
			// do not pin the payloads of rows they once held.
			clear(v.Str[:cap(v.Str)])
			strPool.put(v.Str)
		}
		*v = Vector{Type: v.Type}
	}
	b.Vecs = nil
}
