package storage

import "sync/atomic"

// Clone returns a deep copy of the batch: fresh vectors whose mutation never
// affects the original. The staged engine clones pages when a shared pivot
// fans out results under its eager-copy mode — the physical realization of
// the per-consumer output cost s the model charges the pivot. Under the
// default refcounted fan-out, Clone runs only on the write path (Writable).
func (b *Batch) Clone() *Batch {
	out := &Batch{Schema: b.Schema, Vecs: make([]Vector, len(b.Vecs))}
	for i, v := range b.Vecs {
		cp := Vector{Type: v.Type}
		switch v.Type {
		case Int64, Date:
			cp.I64 = append(make([]int64, 0, len(v.I64)), v.I64...)
		case Float64:
			cp.F64 = append(make([]float64, 0, len(v.F64)), v.F64...)
		case String:
			cp.Str = append(make([]string, 0, len(v.Str)), v.Str...)
		}
		out.Vecs[i] = cp
	}
	return out
}

// Process-wide accounting of refcounted fan-out outcomes (see ShareStats).
var (
	shareMoves    atomic.Int64
	shareCopies   atomic.Int64
	shareReleases atomic.Int64
)

// ShareStats reports the cumulative outcomes of the refcounted fan-out
// protocol process-wide: moves (a Writable call found no outstanding reader
// claims on a page that had been shared and took the original, zero-copy),
// copies (a Writable call found live claims and paid a deep clone), and
// releases (a consumer finished with a shared page without writing it and
// dropped its claim via Release). More releases ahead of adoption mean more
// moves — the point of sink-side claim release.
func ShareStats() (moves, copies, releases int64) {
	return shareMoves.Load(), shareCopies.Load(), shareReleases.Load()
}

// MarkShared records n additional readers of the batch beyond its owner: the
// pivot fanning one page out to m consumers marks it with m-1 extra readers
// and hands every consumer the same pointer. Shared batches are read-only by
// contract; a consumer that needs to mutate goes through Writable, and one
// that finishes without writing drops its claim through Release.
func (b *Batch) MarkShared(n int) {
	if n > 0 {
		b.everShared.Store(true)
		b.shared.Add(int32(n))
	}
}

// Shared reports whether the batch currently has extra readers and must be
// treated as read-only.
func (b *Batch) Shared() bool { return b.shared.Load() > 0 }

// Writable is the write path of refcounted fan-out: it returns the batch
// itself when exclusively owned (a move — the common case for the last or
// only consumer) and a deep clone when other readers still hold it, giving
// up this consumer's claim on the shared original. Clone-on-write means the
// fan-out itself copies nothing; only consumers that mutate pay.
func (b *Batch) Writable() *Batch {
	for {
		n := b.shared.Load()
		if n <= 0 {
			if b.everShared.Load() {
				shareMoves.Add(1)
			}
			// The adopter keeps this storage beyond the pipeline (typically
			// as a query result), so it must never return to the page pool.
			b.poolable.Store(false)
			return b
		}
		if b.shared.CompareAndSwap(n, n-1) {
			shareCopies.Add(1)
			return b.Clone()
		}
	}
}

// Release drops one reader claim without taking a copy: the retire path for
// sinks and fan-out consumers that finish with a shared page they never
// wrote. Releasing early lets a later adopter's Writable find zero claims
// and take the original — the zero-copy move — instead of cloning against a
// reader that no longer exists. Safe to call on never-shared batches and
// idempotent past zero; each consumer must release or adopt at most once
// per page.
//
// For a pool-backed batch (GetPage) that was never fanned out, Release is
// additionally the recycle point: the caller is the page's sole owner and
// declares it dead, so its column storage returns to the page pool. Pages
// that ever carried reader claims (MarkShared) are never recycled — a
// released claim proves the claimant is done, not that no adopter kept an
// alias — and the CAS on the poolable mark makes recycling at-most-once
// even if Release is called again.
func (b *Batch) Release() {
	for {
		n := b.shared.Load()
		if n <= 0 {
			if !b.everShared.Load() && b.poolable.CompareAndSwap(true, false) {
				b.recycle()
			}
			return
		}
		if b.shared.CompareAndSwap(n, n-1) {
			shareReleases.Add(1)
			return
		}
	}
}
