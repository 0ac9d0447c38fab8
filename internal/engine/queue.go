package engine

import (
	"sync"

	"repro/internal/storage"
)

// MinQueueCap is the smallest page capacity a PageQueue supports. Capacity 1
// is load-bearing in two ways: it guarantees a producer can always make
// progress into an empty queue (so closed-loop pipelines never deadlock on a
// zero-capacity hop), and it is the tightest producer throttle the engine
// offers — buildShare.newWaiter relies on a MinQueueCap queue as a pure
// close-signal that never buffers data. NewPageQueue raises smaller requests
// to this value rather than rejecting them.
const MinQueueCap = 1

// PageQueue is the bounded page buffer connecting a producer operator to a
// consumer operator. Finite capacity realizes the model assumption that
// "slow consumers throttle producers" (Section 4): a producer facing a full
// queue parks until the consumer drains a page.
//
// All methods take the task performing the operation so the queue can park
// and wake it through the scheduler. The queue owns its lock: push/pop
// touch only queue-local state, and the scheduler is consulted solely to
// wake a parked task — after the queue lock is released — so page hops on
// different queues never contend with each other or with task dispatch.
type PageQueue struct {
	s        *Scheduler
	name     string
	capacity int

	mu       sync.Mutex
	items    []*storage.Batch
	closed   bool
	waitProd []*Task
	waitCons []*Task
}

// NewPageQueue creates a queue with the given page capacity. Capacities
// below MinQueueCap are raised to it (see the constant's doc for why the
// floor exists).
func NewPageQueue(s *Scheduler, name string, capacity int) *PageQueue {
	if capacity < MinQueueCap {
		capacity = MinQueueCap
	}
	return &PageQueue{s: s, name: name, capacity: capacity}
}

// TryPush appends a page. It returns false — after registering t to be
// woken — when the queue is full; the task should return Blocked. Pushing
// to a closed queue discards the page and reports success (the consumer is
// gone; drop output on the floor so upstream can drain and finish) after
// releasing the departed consumer's reader claim, so surviving fan-out
// siblings are not forced to clone against a reader that will never come.
func (q *PageQueue) TryPush(t *Task, b *storage.Batch) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		b.Release()
		return true
	}
	if len(q.items) >= q.capacity {
		q.waitProd = append(q.waitProd, t)
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, b)
	w := takeWaiter(&q.waitCons)
	q.mu.Unlock()
	q.s.queuedPages.Add(1)
	if w != nil {
		q.s.wake(w)
	}
	return true
}

// TryPop removes the oldest page. ok=false with done=false means "empty but
// producer still running" (task should return Blocked after this call
// registered it for wake-up); ok=false with done=true means the queue is
// closed and drained.
func (q *PageQueue) TryPop(t *Task) (b *storage.Batch, ok, done bool) {
	q.mu.Lock()
	if len(q.items) > 0 {
		b = popFront(&q.items)
		w := takeWaiter(&q.waitProd)
		q.mu.Unlock()
		q.s.queuedPages.Add(-1)
		if w != nil {
			q.s.wake(w)
		}
		return b, true, false
	}
	if q.closed {
		q.mu.Unlock()
		return nil, false, true
	}
	q.waitCons = append(q.waitCons, t)
	q.mu.Unlock()
	return nil, false, false
}

// Close marks the producer finished and wakes all waiting consumers (and
// producers, so fan-out peers observing a closed sibling can make progress).
func (q *PageQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	waiters := append(q.waitCons, q.waitProd...)
	q.waitCons, q.waitProd = nil, nil
	q.mu.Unlock()
	for _, t := range waiters {
		q.s.wake(t)
	}
}

// Len returns the current number of buffered pages.
func (q *PageQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Closed reports whether the queue is closed.
func (q *PageQueue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// takeWaiter pops the oldest waiter, or nil. Caller holds the queue lock;
// the wake itself happens after unlock.
func takeWaiter(list *[]*Task) *Task {
	if len(*list) == 0 {
		return nil
	}
	return popFront(list)
}

// popFront removes and returns the first element of a non-empty *s by
// copying the rest down, so the slice keeps its backing array. Re-slicing
// with s[1:] would walk the array forward and make the next append
// reallocate it; the queues here hold a few entries, so the copy is cheap.
func popFront[T any](s *[]T) T {
	q := *s
	x := q[0]
	n := copy(q, q[1:])
	var zero T
	q[n] = zero // drop the reference the vacated tail slot still holds
	*s = q[:n]
	return x
}
