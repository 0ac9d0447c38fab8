package storage

import (
	"sync"
)

// This file implements the partitioned-scan substrate for intra-query
// parallelism: a morsel dispenser that hands out disjoint page spans of one
// base-table scan to the competing clones of a single consumer group. It is
// the "parallelize" counterpart of the circular scan in scanshare.go: where
// a circular scan delivers *every* page to *every* attached consumer (work
// sharing), a dispenser delivers every page to *exactly one* clone of the
// group (work partitioning). Both are registered in the same Exchange,
// so partitioned scans and in-flight shared scans over the same table
// coexist and can be monitored together.

// MorselDispenser hands out disjoint spans ("morsels") of a fixed-size
// table scan to competing clone readers. Each Next claims the next
// unclaimed span, so the clones of one consumer group collectively cover
// the table exactly once, with no page read twice and none skipped —
// regardless of how the clones interleave. All methods are safe for
// concurrent use.
type MorselDispenser struct {
	mu         sync.Mutex
	rows       int
	morselRows int
	pos        int
	closed     bool
	onClose    func()
}

// NewMorselDispenser creates a dispenser over rows rows handing out
// morselRows rows per claim (minimum 1).
func NewMorselDispenser(rows, morselRows int) *MorselDispenser {
	if morselRows < 1 {
		morselRows = 1
	}
	if rows < 0 {
		rows = 0
	}
	// A zero-row dispenser is born exhausted.
	return &MorselDispenser{rows: rows, morselRows: morselRows, closed: rows == 0}
}

// Next claims the next unclaimed span. ok is false once the table is fully
// dispensed (or the dispenser was closed); the claiming clone is then done.
// The last successful Next closes the dispenser, unregistering it.
func (md *MorselDispenser) Next() (sp Span, ok bool) {
	md.mu.Lock()
	defer md.mu.Unlock()
	if md.closed || md.pos >= md.rows {
		md.closeLocked()
		return Span{}, false
	}
	hi := md.pos + md.morselRows
	if hi > md.rows {
		hi = md.rows
	}
	sp = Span{Lo: md.pos, Hi: hi}
	md.pos = hi
	if md.pos >= md.rows {
		md.closeLocked()
	}
	return sp, true
}

// Remaining reports the fraction of the table not yet dispensed.
func (md *MorselDispenser) Remaining() float64 {
	md.mu.Lock()
	defer md.mu.Unlock()
	if md.rows == 0 || md.closed {
		return 0
	}
	return float64(md.rows-md.pos) / float64(md.rows)
}

// Close force-closes the dispenser (error paths): further Next calls report
// exhaustion, so surviving clones run off the end instead of reading spans
// whose results nobody will consume.
func (md *MorselDispenser) Close() {
	md.mu.Lock()
	defer md.mu.Unlock()
	md.closeLocked()
}

// Closed reports whether the dispenser has been fully dispensed or closed.
func (md *MorselDispenser) Closed() bool {
	md.mu.Lock()
	defer md.mu.Unlock()
	return md.closed
}

func (md *MorselDispenser) closeLocked() {
	if md.closed {
		return
	}
	md.closed = true
	if md.onClose != nil {
		hook := md.onClose
		md.onClose = nil
		hook()
	}
}

// Registration of dispensers (PublishPartitioned) lives in exchange.go with
// the rest of the unified work-exchange registry.
