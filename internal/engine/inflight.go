package engine

import (
	"sync"

	"repro/internal/storage"
)

// inflightScan drives one shared circular table scan and fans its pages out
// to a consumer set that may grow while the scan runs. It is the in-flight
// counterpart of the submission-time outbox: where the outbox seals its
// group on first emit (late joiners would miss pages), the circular scan
// registry lets a joiner attach at the current cursor, consume to the end
// of the table, and pick up the missed prefix on the wrap-around lap — so
// every consumer still sees every page exactly once.
//
// Delivery remains sequential across consumers, preserving the pivot's
// fundamental per-consumer cost s; the fan-out mode decides what each
// consumer receives (refcounted shared page or private clone — see
// FanOutMode), and any copy work is accounted to the scan node's busy
// clock like any pivot work.
type inflightScan struct {
	name   string
	src    *tableSource
	scan   *storage.CircularScan
	clock  *busyClock
	fail   func(error)
	retire func() // removes the group from the joinable map; called once
	fanOut FanOutMode

	mu           sync.Mutex
	queues       map[int]*PageQueue // scan-consumer id -> member chain head
	pending      []scanDelivery
	nextConsumer int
	headMarked   bool
	finished     bool
}

// scanDelivery is one scanned span awaiting fan-out: the filtered page (nil
// when the predicate selected no rows — coverage still advances), the
// member queues it goes to (resolved at enqueue time, while the consumer
// set is provably stable), and the consumer ids whose circle completes
// with it (their queues close after this delivery).
type scanDelivery struct {
	b          *storage.Batch
	targets    []*PageQueue
	closeAfter []int
}

func newInflightScan(name string, src *tableSource, scan *storage.CircularScan, clock *busyClock, fail func(error), fanOut FanOutMode) *inflightScan {
	return &inflightScan{
		name:   name,
		src:    src,
		scan:   scan,
		clock:  clock,
		fail:   fail,
		fanOut: fanOut,
		queues: make(map[int]*PageQueue),
	}
}

// attach registers a member chain as a scan consumer at the current cursor.
// Registering the queue and attaching the cursor happen under one lock so a
// concurrently advancing scan either misses the joiner entirely (it attaches
// at the next span) or finds its queue ready. Returns false when the scan
// already finished; the caller must start a fresh group.
func (fs *inflightScan) attach(q *PageQueue) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c, ok := fs.scan.Attach()
	if !ok {
		return false
	}
	fs.queues[c.ID()] = q
	return true
}

// flush delivers pending spans in order via the same sequential fan-out
// protocol the submission-time outbox uses (deliverSeq). Completed
// consumers' queues close after their last page.
func (fs *inflightScan) flush(t *Task) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for len(fs.pending) > 0 {
		d := &fs.pending[0]
		if d.b != nil {
			markShared(d.b, len(d.targets), fs.fanOut, &fs.headMarked)
			if !deliverSeq(t, d.b, d.targets, &fs.nextConsumer, fs.fanOut) {
				return false
			}
		}
		for _, id := range d.closeAfter {
			if q := fs.queues[id]; q != nil {
				q.Close()
				delete(fs.queues, id)
			}
		}
		popFront(&fs.pending)
		fs.nextConsumer = 0
		fs.headMarked = false
	}
	return true
}

// abort closes the scan and every consumer queue after a group failure —
// whether the scan itself errored or a member chain died (a dead chain
// stops draining its head queue, which would otherwise park the scan task
// forever). Idempotent.
func (fs *inflightScan) abort() {
	fs.scan.Close()
	fs.mu.Lock()
	queues := make([]*PageQueue, 0, len(fs.queues))
	for _, q := range fs.queues {
		queues = append(queues, q)
	}
	fs.queues = make(map[int]*PageQueue)
	fs.pending = nil
	fs.nextConsumer = 0
	fs.headMarked = false
	fs.mu.Unlock()
	for _, q := range queues {
		q.Close()
	}
}

// step is the scan task body: flush pending deliveries, then advance the
// circular cursor one quantum, read the span, and enqueue its delivery.
// When the cursor reports no live consumers remain the scan retires its
// group immediately (new arrivals start fresh groups) and finishes once
// the tail of pending deliveries drains.
func (fs *inflightScan) step(t *Task) Status {
	flushed := false
	fs.clock.measure(fs.name, func() { flushed = fs.flush(t) })
	if !flushed {
		return Blocked
	}
	if fs.finished {
		return Done
	}
	sp, served, completed, more := fs.scan.Advance()
	var b *storage.Batch
	if sp.Len() > 0 && len(served) > 0 {
		var err error
		fs.clock.measure(fs.name, func() { b, err = fs.src.readSpan(sp.Lo, sp.Hi) })
		if err != nil {
			fs.fail(err)
			fs.abort()
			fs.retire()
			return Done
		}
	}
	closeAfter := make([]int, len(completed))
	for i, c := range completed {
		closeAfter[i] = c.ID()
	}
	fs.mu.Lock()
	// Resolve target queues now: every served consumer registered its queue
	// at attach, and removals (closeAfter, abort) happen under fs.mu, so a
	// missing entry only means the group already aborted — skip it.
	var targets []*PageQueue
	if b != nil {
		targets = make([]*PageQueue, 0, len(served))
		for _, c := range served {
			if q := fs.queues[c.ID()]; q != nil {
				targets = append(targets, q)
			}
		}
	}
	fs.pending = append(fs.pending, scanDelivery{b: b, targets: targets, closeAfter: closeAfter})
	fs.mu.Unlock()
	if !more {
		fs.finished = true
		fs.retire()
	}
	return Again
}
