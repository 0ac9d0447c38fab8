package engine

import (
	"sync"
	"time"

	"repro/internal/storage"
)

// outbox manages an operator's output side: buffered batches awaiting
// delivery, fan-out to multiple consumers (sharers), and per-consumer
// copying. Delivery is sequential across consumers — the serialization the
// paper identifies as the pivot's fundamental cost ("the pivot must
// sequentially output results to all M consumers", Section 6.2).
type outbox struct {
	mu           sync.Mutex
	outs         []*PageQueue
	pending      []*storage.Batch
	nextConsumer int
	fanOut       FanOutMode
	onFirstEmit  func()
	// retire, when set, replaces queue closure in closeAll: parallel clones
	// share one fan-in queue, which must close only after the last clone
	// retires (see fanInCloser), not when the first one finishes.
	retire func()
	// onClosed, when set, runs once after the output stream has ended (all
	// consumer queues closed); the engine retires the group's work-exchange
	// outlet through it.
	onClosed   func()
	headMarked bool
	emitted    bool
	closed     bool
}

// add buffers a batch for delivery. The first add seals the sharing group
// via onFirstEmit (late joiners would miss this page).
func (o *outbox) add(b *storage.Batch) {
	o.mu.Lock()
	first := !o.emitted
	o.emitted = true
	o.pending = append(o.pending, b)
	o.mu.Unlock()
	if first && o.onFirstEmit != nil {
		o.onFirstEmit()
	}
}

// attach adds a consumer queue. Only valid before the first emit (enforced
// by the engine's group admission under its own lock). A closed outbox can
// still be reached by an attach racing closeAll's seal of the group: the
// stream ended with zero emissions, so the consumer's correct input is the
// empty, already-ended stream — close its queue instead of stranding it.
func (o *outbox) attach(q *PageQueue) {
	o.mu.Lock()
	closed := o.closed
	if !closed {
		o.outs = append(o.outs, q)
	}
	o.mu.Unlock()
	if closed {
		q.Close()
	}
}

// consumers returns the current fan-out width.
func (o *outbox) consumers() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.outs)
}

// deliverSeq pushes b to queues[*next:] sequentially — the serialization
// the paper identifies as the pivot's fundamental cost. What each consumer
// receives depends on the fan-out mode: FanOutShare hands every consumer
// the same refcounted read-only pointer (the caller marks the page's reader
// count once, via markShared, before the first delivery); FanOutClone
// deep-copies per consumer except the last, which receives the original (a
// move — the physical s of the model). Single-consumer hand-off always
// moves. Returns false when a full queue blocked progress, leaving *next
// at the resume position (the task should return Blocked; the queue
// registered it for wake-up).
func deliverSeq(t *Task, b *storage.Batch, queues []*PageQueue, next *int, mode FanOutMode) bool {
	for *next < len(queues) {
		out := b
		if mode == FanOutClone && *next < len(queues)-1 {
			out = b.Clone()
		}
		if !queues[*next].TryPush(t, out) {
			return false
		}
		*next++
	}
	return true
}

// markShared applies FanOutShare's reader accounting exactly once per batch:
// marked tracks whether the head batch was already marked, so a delivery
// that blocks mid-fan-out and resumes does not double-count its readers.
func markShared(b *storage.Batch, consumers int, mode FanOutMode, marked *bool) {
	if mode == FanOutShare && consumers > 1 && !*marked {
		b.MarkShared(consumers - 1)
	}
	*marked = true
}

// flush delivers pending batches to all consumers in order. It returns true
// when everything was delivered, false when a full queue blocked progress.
func (o *outbox) flush(t *Task) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.pending) > 0 {
		markShared(o.pending[0], len(o.outs), o.fanOut, &o.headMarked)
		if !deliverSeq(t, o.pending[0], o.outs, &o.nextConsumer, o.fanOut) {
			return false
		}
		popFront(&o.pending)
		o.nextConsumer = 0
		o.headMarked = false
	}
	return true
}

// closeAll closes every consumer queue, or defers to the retire hook when
// one is set; either way onClosed then fires once (idempotent overall).
func (o *outbox) closeAll() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	outs := append([]*PageQueue(nil), o.outs...)
	retire := o.retire
	onClosed := o.onClosed
	o.mu.Unlock()
	if retire != nil {
		retire()
	} else {
		for _, q := range outs {
			q.Close()
		}
	}
	if onClosed != nil {
		onClosed()
	}
}

// busyClock accumulates per-node busy time for profiling (Section 3.1's
// measurement input).
type busyClock struct {
	enabled bool
	mu      sync.Mutex
	nanos   map[string]int64
}

func newBusyClock(enabled bool) *busyClock {
	return &busyClock{enabled: enabled, nanos: make(map[string]int64)}
}

func (c *busyClock) measure(name string, f func()) {
	if !c.enabled {
		f()
		return
	}
	start := time.Now()
	f()
	d := time.Since(start).Nanoseconds()
	c.mu.Lock()
	c.nanos[name] += d
	c.mu.Unlock()
}

func (c *busyClock) snapshot() map[string]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Duration, len(c.nanos))
	for k, v := range c.nanos {
		out[k] = time.Duration(v)
	}
	return out
}

// sourceTask drives a PageSource: one Next per quantum, output via outbox.
type sourceTask struct {
	name  string
	src   PageSource
	out   *outbox
	clock *busyClock
	fail  func(error)
	eof   bool
}

func (st *sourceTask) step(t *Task) Status {
	flushed := false
	st.clock.measure(st.name, func() { flushed = st.out.flush(t) })
	if !flushed {
		return Blocked
	}
	if st.eof {
		st.out.closeAll()
		return Done
	}
	var b *storage.Batch
	var eof bool
	var err error
	st.clock.measure(st.name, func() { b, eof, err = st.src.Next() })
	if err != nil {
		st.fail(err)
		st.out.closeAll()
		return Done
	}
	st.eof = eof
	if b != nil {
		st.out.add(b)
	}
	return Again
}

// opTask drives a unary operator: pop one page, Push it, flush outputs.
// releaseInput marks operators that consume their input (relop.Consuming):
// the task drops the page's reader claim the moment Push returns, so a
// sibling fan-out consumer that later adopts the page can move it instead
// of cloning. Pass-through operators keep the claim alive downstream.
type opTask struct {
	name         string
	push         func(*storage.Batch) error
	finish       func() error
	in           *PageQueue
	out          *outbox
	clock        *busyClock
	fail         func(error)
	releaseInput bool
	finished     bool
}

func (ot *opTask) step(t *Task) Status {
	flushed := false
	ot.clock.measure(ot.name, func() { flushed = ot.out.flush(t) })
	if !flushed {
		return Blocked
	}
	if ot.finished {
		ot.out.closeAll()
		return Done
	}
	b, ok, done := ot.in.TryPop(t)
	switch {
	case ok:
		var err error
		ot.clock.measure(ot.name, func() { err = ot.push(b) })
		if err != nil {
			ot.fail(err)
			ot.out.closeAll()
			return Done
		}
		if ot.releaseInput {
			b.Release()
		}
		return Again
	case done:
		var err error
		ot.clock.measure(ot.name, func() { err = ot.finish() })
		if err != nil {
			ot.fail(err)
			ot.out.closeAll()
			return Done
		}
		ot.finished = true
		return Again // flush whatever Finish emitted, then close
	default:
		return Blocked
	}
}

// joinTask drives a JoinOperator: drains the build input first, then seals
// the build and streams the probe input. Bounded probe queues throttle the
// probe-side producer while the build runs — the stop-&-go decoupling of
// Section 5.3.3 falls out of the queue discipline.
type joinTask struct {
	name         string
	join         JoinOperator
	build        *PageQueue
	probe        *PageQueue
	out          *outbox
	clock        *busyClock
	fail         func(error)
	releaseInput bool
	building     bool
	finished     bool
}

func (jt *joinTask) step(t *Task) Status {
	flushed := false
	jt.clock.measure(jt.name, func() { flushed = jt.out.flush(t) })
	if !flushed {
		return Blocked
	}
	if jt.finished {
		jt.out.closeAll()
		return Done
	}
	if jt.building {
		b, ok, done := jt.build.TryPop(t)
		switch {
		case ok:
			var err error
			jt.clock.measure(jt.name, func() { err = jt.join.PushBuild(b) })
			if err != nil {
				jt.fail(err)
				jt.out.closeAll()
				return Done
			}
			if jt.releaseInput {
				b.Release()
			}
			return Again
		case done:
			var err error
			jt.clock.measure(jt.name, func() { err = jt.join.FinishBuild() })
			if err != nil {
				jt.fail(err)
				jt.out.closeAll()
				return Done
			}
			jt.building = false
			return Again
		default:
			return Blocked
		}
	}
	b, ok, done := jt.probe.TryPop(t)
	switch {
	case ok:
		var err error
		jt.clock.measure(jt.name, func() { err = jt.join.Push(b) })
		if err != nil {
			jt.fail(err)
			jt.out.closeAll()
			return Done
		}
		if jt.releaseInput {
			b.Release()
		}
		return Again
	case done:
		var err error
		jt.clock.measure(jt.name, func() { err = jt.join.Finish() })
		if err != nil {
			jt.fail(err)
			jt.out.closeAll()
			return Done
		}
		jt.finished = true
		return Again
	default:
		return Blocked
	}
}

// sinkTask drains the root queue into the query's result and completes the
// handle.
type sinkTask struct {
	in       *PageQueue
	result   *storage.Batch
	complete func(*storage.Batch)
}

func (sk *sinkTask) step(t *Task) Status {
	for {
		b, ok, done := sk.in.TryPop(t)
		switch {
		case ok:
			if sk.result.Len() == 0 {
				// Adopt the first page wholesale through the refcounted
				// write path: when this sink is the page's only owner the
				// adoption is a move (zero copy — the common case for
				// single-page aggregate results); while other readers hold
				// it, Writable yields a private clone instead.
				sk.result = b.Writable()
			} else {
				sk.result.AppendBatch(b)
				// The content is copied; drop this sink's reader claim so a
				// sibling that has yet to adopt the page can move it.
				b.Release()
			}
		case done:
			sk.complete(sk.result)
			return Done
		default:
			return Blocked
		}
	}
}
