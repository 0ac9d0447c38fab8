package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

func TestSchedulerRejectsBadWorkers(t *testing.T) {
	if _, err := NewScheduler(0); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := NewScheduler(-3); err == nil {
		t.Error("negative workers accepted")
	}
}

func TestSchedulerRunsTasksToCompletion(t *testing.T) {
	s, err := NewScheduler(4)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	var total int64
	for i := 0; i < 10; i++ {
		steps := 0
		s.Spawn("counter", func(*Task) Status {
			steps++
			atomic.AddInt64(&total, 1)
			if steps >= 5 {
				return Done
			}
			return Again
		})
	}
	s.WaitIdle()
	if got := atomic.LoadInt64(&total); got != 50 {
		t.Errorf("executed %d quanta, want 50", got)
	}
	if s.Live() != 0 {
		t.Errorf("live = %d after WaitIdle", s.Live())
	}
}

func TestSchedulerStartIdempotent(t *testing.T) {
	s, err := NewScheduler(2)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Start() // must not double workers / panic
	s.Stop()
	s.Stop() // idempotent stop
}

func TestSchedulerWorkersBound(t *testing.T) {
	// With 1 worker, two tasks never run concurrently.
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	var inStep int32
	var maxSeen int32
	var mu sync.Mutex
	for i := 0; i < 4; i++ {
		n := 0
		s.Spawn("t", func(*Task) Status {
			cur := atomic.AddInt32(&inStep, 1)
			mu.Lock()
			if cur > maxSeen {
				maxSeen = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&inStep, -1)
			n++
			if n >= 3 {
				return Done
			}
			return Again
		})
	}
	s.WaitIdle()
	if maxSeen != 1 {
		t.Errorf("max concurrent steps = %d on 1 worker", maxSeen)
	}
}

// TestSchedulerFairnessMixedGroups runs a degree-4 clone group alongside
// serial tasks — the mixed regime intra-query parallelism creates — and
// asserts the FIFO round-robin discipline keeps per-task progress within a
// bounded skew: no task (clone or serial) starves, and every
// always-runnable task executes within a small constant of its fair share
// of quanta. One worker isolates the queue discipline itself: with several
// workers on a time-sliced host, the OS can park a worker mid-quantum
// while it holds a task, which reads as skew the scheduler never caused.
func TestSchedulerFairnessMixedGroups(t *testing.T) {
	const (
		workers    = 1
		cloneTasks = 4 // one degree-4 clone group
		serial     = 3
		total      = cloneTasks + serial
		quota      = 400 // quanta per task before the run ends
	)
	s, err := NewScheduler(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	var stop int32
	steps := make([]int64, total)
	for i := 0; i < total; i++ {
		i := i
		name := "serial"
		if i < cloneTasks {
			name = "clone"
		}
		s.Spawn(name, func(*Task) Status {
			if atomic.LoadInt32(&stop) != 0 {
				return Done
			}
			if atomic.AddInt64(&steps[i], 1) >= quota {
				atomic.StoreInt32(&stop, 1)
				return Done
			}
			return Again
		})
	}
	// Start only after every task is queued: otherwise early-spawned tasks
	// burn quanta while the rest are still being registered, which reads as
	// skew the scheduler never caused.
	s.Start()
	s.WaitIdle()

	min, max := atomic.LoadInt64(&steps[0]), atomic.LoadInt64(&steps[0])
	for i := 1; i < total; i++ {
		n := atomic.LoadInt64(&steps[i])
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 {
		t.Fatalf("a task starved entirely: per-task steps %v", steps)
	}
	// FIFO requeue means a runnable task waits exactly (total-1) quanta
	// between turns, so when the first task reaches its quota every other
	// task is within one round of it. A one-round bound catches any
	// systematic bias toward clone groups or serial tasks.
	const skewBound = total
	if max-min > skewBound {
		t.Fatalf("per-task progress skew %d exceeds bound %d (min %d, max %d, steps %v)",
			max-min, skewBound, min, max, steps)
	}
}

// TestSchedulerStealsFromBusyPeer pins one worker inside a long quantum and
// proves the other worker promptly steals the queued task stranded behind it:
// the victim's queue holds work it cannot serve, and the only way the run
// completes is a cross-queue steal.
func TestSchedulerStealsFromBusyPeer(t *testing.T) {
	s, err := NewScheduler(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	var unblocked atomic.Bool
	// Spawns round-robin, so placement is deterministic: pinner→queue 0,
	// filler→queue 1, stranded→queue 0.
	deadline := time.Now().Add(10 * time.Second)
	s.Spawn("pinner", func(*Task) Status {
		for !unblocked.Load() {
			if time.Now().After(deadline) {
				t.Error("stranded task never ran: no steal happened")
				return Done
			}
			time.Sleep(time.Millisecond)
		}
		return Done
	})
	s.Spawn("filler", func(*Task) Status { return Done })
	s.Spawn("stranded", func(*Task) Status {
		unblocked.Store(true)
		return Done
	})
	s.Start()
	s.WaitIdle()
	// Whichever worker ends up pinned, the stranded task (or the pinner
	// itself) reached the free worker through its steal sweep.
	if s.Steals() == 0 {
		t.Error("run completed without a recorded steal")
	}
}

// TestSchedulerStealingKeepsMixedGroupsBounded runs fused-style long tasks
// next to a fan-out clone group on a stealing multi-worker scheduler and
// checks nothing starves. Every counted task starts on worker 0's queue, so
// the other workers get work only by stealing. Every few steps a task parks,
// as operators do when a page queue runs empty or full, and the next step of
// any task wakes it; wake re-places it round-robin. A worker whose tasks are
// all parked or stolen steals again. Over the run every task must make at
// least a fixed fraction of the fastest task's progress, whether it stayed
// on the crowded queue or was stolen to a queue of its own.
//
// The run is built to measure steady state rather than start-up: workers are
// capped at GOMAXPROCS, a barrier holds every counted step until all workers
// are live, each step does a few microseconds of real work, and the run
// lasts a fixed wall-clock quota spanning many timeslices.
func TestSchedulerStealingKeepsMixedGroupsBounded(t *testing.T) {
	const (
		clones    = 4 // one degree-4 fan-out group
		fused     = 3 // long fused-chain stand-ins
		total     = clones + fused
		quota     = 100 * time.Millisecond
		parkEvery = 4 // steps between parks
		// floor is the least progress any task may make relative to the
		// fastest: the OS can still stall a worker for whole timeslices.
		floor = 0.25
	)
	// On one thread the Go runtime, not the scheduler, decides which worker
	// runs, in 10 ms slices that freeze whatever task a worker holds.
	workers := min(4, runtime.GOMAXPROCS(0))
	if workers < 2 {
		t.Skip("stealing needs two workers running at once; GOMAXPROCS is 1")
	}
	s, err := NewScheduler(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// One barrier task per worker, spawned first so one heads each queue. A
	// barrier step holds its worker until every barrier has arrived, which
	// needs every worker running at once; no counted step runs before that.
	// The last arrival starts the quota.
	var arrived atomic.Int32
	var end atomic.Int64 // UnixNano at which the run stops
	giveUp := time.Now().Add(10 * time.Second)
	for w := 0; w < workers; w++ {
		s.Spawn("barrier", func(*Task) Status {
			if arrived.Add(1) == int32(workers) {
				end.Store(time.Now().Add(quota).UnixNano())
			}
			for end.Load() == 0 {
				if time.Now().After(giveUp) {
					t.Error("workers never all started")
					end.Store(1)
				}
				runtime.Gosched()
			}
			return Done
		})
	}

	// Parked tasks wait in FIFO order for the next step of any task to wake
	// them. Once the quota ends no task parks again and the last parked ones
	// are woken so they can finish.
	var (
		mu     sync.Mutex
		parked []*Task
		closed bool
	)
	wakeOne := func() {
		mu.Lock()
		var w *Task
		if len(parked) > 0 {
			w, parked = parked[0], parked[1:]
		}
		mu.Unlock()
		if w != nil {
			s.wake(w)
		}
	}
	park := func(tk *Task) bool {
		mu.Lock()
		defer mu.Unlock()
		if !closed {
			parked = append(parked, tk)
		}
		return !closed
	}
	finish := func() {
		mu.Lock()
		closed = true
		rest := parked
		parked = nil
		mu.Unlock()
		for _, w := range rest {
			s.wake(w)
		}
	}

	// Spawns round-robin across the queues, so each counted task (queue 0)
	// is followed by one no-op filler for every other queue.
	steps := make([]int64, total)
	var sink atomic.Uint64
	for i := 0; i < total; i++ {
		i := i
		name := "fused"
		if i < clones {
			name = "clone"
		}
		s.Spawn(name, func(tk *Task) Status {
			if time.Now().UnixNano() >= end.Load() {
				finish()
				return Done
			}
			// A few microseconds of work, standing in for a quantum's page.
			acc := uint64(i)
			for k := 0; k < 2000; k++ {
				acc = acc*2654435761 + uint64(k)
			}
			sink.Add(acc & 1)
			n := atomic.AddInt64(&steps[i], 1)
			wakeOne()
			if n%parkEvery == 0 && park(tk) {
				return Blocked
			}
			return Again
		})
		for w := 1; w < workers; w++ {
			s.Spawn("filler", func(*Task) Status { return Done })
		}
	}
	s.Start()
	s.WaitIdle()

	if s.Steals() == 0 {
		t.Fatalf("no steal on %d workers although all work started on one queue (steps %v)", workers, steps)
	}
	lo, hi := atomic.LoadInt64(&steps[0]), atomic.LoadInt64(&steps[0])
	for i := 1; i < total; i++ {
		n := atomic.LoadInt64(&steps[i])
		lo, hi = min(lo, n), max(hi, n)
	}
	if lo == 0 {
		t.Fatalf("a task starved entirely: per-task steps %v", steps)
	}
	if float64(lo) < floor*float64(hi) {
		t.Fatalf("progress min %d < %.2f × max %d on %d workers (steps %v, %d steals)",
			lo, floor, hi, workers, steps, s.Steals())
	}
}

func TestPageQueueBasics(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	q := NewPageQueue(s, "q", 2)
	sch := storage.MustSchema(storage.Column{Name: "x", Type: storage.Int64})
	t1 := &Task{name: "producer"}
	t2 := &Task{name: "consumer"}
	mk := func(v int64) *storage.Batch {
		b := storage.NewBatch(sch, 1)
		if err := b.AppendRow(v); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !q.TryPush(t1, mk(1)) || !q.TryPush(t1, mk(2)) {
		t.Fatal("pushes under capacity failed")
	}
	if q.TryPush(t1, mk(3)) {
		t.Error("push over capacity succeeded")
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d", q.Len())
	}
	b, ok, done := q.TryPop(t2)
	if !ok || done || b.MustCol("x").I64[0] != 1 {
		t.Errorf("pop = %v %v %v", b, ok, done)
	}
	q.Close()
	if !q.Closed() {
		t.Error("Closed() = false after Close")
	}
	// Remaining item still drains after close.
	b, ok, done = q.TryPop(t2)
	if !ok || b.MustCol("x").I64[0] != 2 {
		t.Errorf("drain after close failed: %v %v %v", b, ok, done)
	}
	_, ok, done = q.TryPop(t2)
	if ok || !done {
		t.Errorf("pop on drained closed queue = ok:%v done:%v", ok, done)
	}
	// Push to closed queue drops silently (success).
	if !q.TryPush(t1, mk(9)) {
		t.Error("push to closed queue reported blocked")
	}
	if q.Len() != 0 {
		t.Error("closed queue accepted a page")
	}
}

func TestPageQueueThrottlesProducer(t *testing.T) {
	// A fast producer over a capacity-1 queue must interleave with the
	// consumer rather than buffering unboundedly — the "slow consumers
	// throttle producers" property.
	s, err := NewScheduler(2)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	q := NewPageQueue(s, "tiny", 1)
	sch := storage.MustSchema(storage.Column{Name: "x", Type: storage.Int64})
	const pages = 50
	produced := 0
	// Queue operations use the *Task the scheduler hands the step — a task
	// may run before Spawn's return value is even assigned.
	s.Spawn("producer", func(tk *Task) Status {
		if produced >= pages {
			q.Close()
			return Done
		}
		b := storage.NewBatch(sch, 1)
		if err := b.AppendRow(int64(produced)); err != nil {
			t.Error(err)
			return Done
		}
		if !q.TryPush(tk, b) {
			return Blocked
		}
		produced++
		return Again
	})

	consumed := 0
	s.Spawn("consumer", func(tk *Task) Status {
		b, ok, done := q.TryPop(tk)
		switch {
		case ok:
			if got := b.MustCol("x").I64[0]; got != int64(consumed) {
				t.Errorf("out of order: got %d want %d", got, consumed)
			}
			consumed++
			return Again
		case done:
			return Done
		default:
			return Blocked
		}
	})
	s.WaitIdle()
	if consumed != pages {
		t.Errorf("consumed %d pages, want %d", consumed, pages)
	}
}

func TestOutboxFanOutCopies(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	qa := NewPageQueue(s, "a", 4)
	qb := NewPageQueue(s, "b", 4)
	ob := &outbox{outs: []*PageQueue{qa, qb}, fanOut: FanOutClone}
	sch := storage.MustSchema(storage.Column{Name: "x", Type: storage.Int64})
	b := storage.NewBatch(sch, 1)
	if err := b.AppendRow(int64(7)); err != nil {
		t.Fatal(err)
	}
	fired := false
	ob.onFirstEmit = func() { fired = true }
	ob.add(b)
	if !fired {
		t.Error("onFirstEmit not fired")
	}
	tsk := &Task{name: "x"}
	if !ob.flush(tsk) {
		t.Fatal("flush blocked unexpectedly")
	}
	ba, _, _ := qa.TryPop(tsk)
	bb, _, _ := qb.TryPop(tsk)
	if ba == nil || bb == nil {
		t.Fatal("fan-out did not deliver to both consumers")
	}
	// The last consumer receives the original (a move); earlier consumers
	// get private clones.
	if bb != b {
		t.Error("last consumer did not receive the original page (move)")
	}
	if ba == b {
		t.Error("first consumer shares the original page despite FanOutClone")
	}
	if ba.MustCol("x").I64[0] != 7 {
		t.Error("clone corrupted")
	}
}

func TestOutboxBlocksMidFanOutAndResumes(t *testing.T) {
	s, err := NewScheduler(1)
	if err != nil {
		t.Fatal(err)
	}
	qa := NewPageQueue(s, "a", 1)
	qb := NewPageQueue(s, "b", 1)
	ob := &outbox{outs: []*PageQueue{qa, qb}}
	sch := storage.MustSchema(storage.Column{Name: "x", Type: storage.Int64})
	mk := func(v int64) *storage.Batch {
		b := storage.NewBatch(sch, 1)
		if err := b.AppendRow(v); err != nil {
			t.Fatal(err)
		}
		return b
	}
	tsk := &Task{name: "x"}
	// Pre-fill qb so delivery to it blocks after qa succeeds.
	if !qb.TryPush(tsk, mk(99)) {
		t.Fatal("prefill failed")
	}
	ob.add(mk(1))
	if ob.flush(tsk) {
		t.Fatal("flush should have blocked on qb")
	}
	// qa already received the page; popping qb's filler lets flush finish
	// without re-delivering to qa.
	if got, _, _ := qa.TryPop(tsk); got == nil || got.MustCol("x").I64[0] != 1 {
		t.Fatal("qa did not receive the page before blocking")
	}
	if got, _, _ := qb.TryPop(tsk); got == nil || got.MustCol("x").I64[0] != 99 {
		t.Fatal("filler missing")
	}
	if !ob.flush(tsk) {
		t.Fatal("flush still blocked after space freed")
	}
	if got, _, _ := qb.TryPop(tsk); got == nil || got.MustCol("x").I64[0] != 1 {
		t.Error("qb did not receive the pending page")
	}
	if got, _, _ := qa.TryPop(tsk); got != nil {
		t.Error("qa received a duplicate page")
	}
}
