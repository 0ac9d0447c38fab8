package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/relop"
	"repro/internal/storage"
)

// drainSpec is a minimal scan + count plan over a fresh n-row table.
func drainSpec(t *testing.T, n int) QuerySpec {
	t.Helper()
	tbl := twoColTable(t, n)
	scanSchema := storage.MustSchema(storage.Column{Name: "v", Type: storage.Int64})
	return QuerySpec{
		Signature: "drain/count",
		Pivot:     0,
		Nodes: []NodeSpec{
			ScanNode("drain/scan", tbl, nil, []string{"v"}, 4),
			{Name: "drain/agg", Input: 0, Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewHashAgg(scanSchema, nil, []relop.AggSpec{
					{Func: relop.Count, As: "cnt"},
				}, emit)
			}},
		},
	}
}

// Drain must block until in-flight queries complete, deliver their results,
// and then reject new submissions with ErrDraining.
func TestDrainFinishesInflightAndRejectsNew(t *testing.T) {
	e, err := New(Options{Workers: 2, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := drainSpec(t, 64)
	var handles []*Handle
	for i := 0; i < 4; i++ {
		h, err := e.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	drained := make(chan struct{})
	go func() {
		e.Drain()
		close(drained)
	}()
	// The queries are paused, so the drain must still be waiting.
	select {
	case <-drained:
		t.Fatal("Drain returned with 4 queries in flight")
	case <-time.After(20 * time.Millisecond):
	}
	if !e.Draining() {
		t.Fatal("Draining() = false after Drain started")
	}
	if _, err := e.Submit(spec, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: err = %v, want ErrDraining", err)
	}
	e.Start()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after queries completed")
	}
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Len() != 1 || res.MustCol("cnt").F64 == nil && res.MustCol("cnt").I64 == nil {
			t.Fatalf("query %d: unexpected drained result %v", i, res)
		}
	}
	if e.Counters().Active != 0 {
		t.Fatalf("Active() = %d after drain, want 0", e.Counters().Active)
	}
}

// Drain on an idle engine returns immediately, concurrently-safe.
func TestDrainIdleAndConcurrent(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Drain()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Drain on an idle engine hung")
	}
}

// StartSweep after Close must refuse — a ticker goroutine started then would
// never receive the stop signal Close already delivered, leaking forever.
// This is the regression test for the late Options.SweepInterval path.
func TestStartSweepAfterCloseDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if e.StartSweep(time.Millisecond, time.Millisecond) {
		t.Fatal("StartSweep after Close reported started")
	}
	e.mu.Lock()
	leaked := e.sweepStop != nil
	e.mu.Unlock()
	if leaked {
		t.Fatal("StartSweep after Close installed a stop channel")
	}
	// The goroutine count must settle back to (at most) the pre-test level;
	// poll briefly to let scheduler workers exit.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
}

// A running sweep refuses a second start, stops at Close, and the late
// StartSweep path works on a live engine.
func TestStartSweepLifecycle(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !e.StartSweep(time.Millisecond, 0) {
		t.Fatal("late StartSweep on a live engine refused")
	}
	if e.StartSweep(time.Millisecond, 0) {
		t.Fatal("second StartSweep reported started with one already running")
	}
	// Let at least one tick fire so the loop is provably live, then Close
	// must stop it (no hang, no race under -race).
	time.Sleep(5 * time.Millisecond)
	e.Close()
	e.Close() // still idempotent
}
