package storage

import (
	"sync"
	"testing"
)

// coverage tracks, per row, how many times a consumer received it.
type coverage struct {
	counts []int
}

func newCoverage(rows int) *coverage { return &coverage{counts: make([]int, rows)} }

func (cv *coverage) add(sp Span) {
	for r := sp.Lo; r < sp.Hi; r++ {
		cv.counts[r]++
	}
}

func (cv *coverage) exactlyOnce() bool {
	for _, c := range cv.counts {
		if c != 1 {
			return false
		}
	}
	return true
}

// drive advances the scan to completion, attaching lateJoiners[i] after i+1
// quanta, and returns each consumer's row coverage.
func drive(t *testing.T, cs *CircularScan, rows int, lateAfter []int) map[int]*coverage {
	t.Helper()
	cov := make(map[int]*coverage)
	attach := func() {
		c, ok := cs.Attach()
		if !ok {
			t.Fatal("attach to live scan failed")
		}
		cov[c.ID()] = newCoverage(rows)
	}
	attach() // initial consumer at position 0
	step := 0
	pendingLate := append([]int(nil), lateAfter...)
	for {
		sp, served, completed, more := cs.Advance()
		for _, c := range served {
			cov[c.ID()].add(sp)
		}
		for _, c := range completed {
			if !c.Done() {
				t.Errorf("completed consumer %d not marked done", c.ID())
			}
		}
		step++
		for len(pendingLate) > 0 && pendingLate[0] == step {
			pendingLate = pendingLate[1:]
			if more {
				attach()
			}
		}
		if !more {
			break
		}
	}
	if !cs.Closed() {
		t.Error("scan not closed after final Advance")
	}
	return cov
}

func TestCircularScanSingleConsumerOneLap(t *testing.T) {
	cs := NewCircularScan(10, 3)
	cov := drive(t, cs, 10, nil)
	if len(cov) != 1 {
		t.Fatalf("got %d consumers, want 1", len(cov))
	}
	for id, cv := range cov {
		if !cv.exactlyOnce() {
			t.Errorf("consumer %d coverage %v, want every row exactly once", id, cv.counts)
		}
	}
	if _, lap := cs.Progress(); lap != 1 {
		t.Errorf("lap = %d, want 1 (no wrap work without late joiners)", lap)
	}
}

func TestCircularScanWrapAroundExactlyOnce(t *testing.T) {
	// 20 rows, 4 per page = 5 quanta per lap. Joiners attach after quanta
	// 1, 3, and 7 (the last lands mid-wrap, on the second lap).
	cs := NewCircularScan(20, 4)
	cov := drive(t, cs, 20, []int{1, 3, 7})
	if len(cov) != 4 {
		t.Fatalf("got %d consumers, want 4", len(cov))
	}
	for id, cv := range cov {
		if !cv.exactlyOnce() {
			t.Errorf("consumer %d coverage %v, want every row exactly once", id, cv.counts)
		}
	}
}

func TestCircularScanAttachRejectedAfterClose(t *testing.T) {
	cs := NewCircularScan(4, 4)
	if _, ok := cs.Attach(); !ok {
		t.Fatal("initial attach failed")
	}
	if _, _, _, more := cs.Advance(); more {
		t.Fatal("single-page scan should close after one quantum")
	}
	if _, ok := cs.Attach(); ok {
		t.Error("attach to closed scan succeeded")
	}
	if _, _, ok := cs.Remaining(); ok {
		t.Error("Remaining reported a closed scan attachable")
	}
}

func TestCircularScanRemainingFraction(t *testing.T) {
	cs := NewCircularScan(10, 5)
	if _, ok := cs.Attach(); !ok {
		t.Fatal("attach failed")
	}
	if f, active, ok := cs.Remaining(); !ok || f != 1 || active != 1 {
		t.Fatalf("Remaining = %v,%v,%v want 1,1,true", f, active, ok)
	}
	cs.Advance()
	if f, _, ok := cs.Remaining(); !ok || f != 0.5 {
		t.Fatalf("Remaining after half a lap = %v,%v want 0.5,true", f, ok)
	}
}

// TestCircularScanRemainingOnWrapLap pins the shared-fraction semantics: on
// a wrap-around lap serving only a late joiner, Remaining must report that
// joiner's residual circle, not the cursor's apparent distance from the
// table end — otherwise the attach policy would price a near-solo re-scan
// as almost fully shared.
func TestCircularScanRemainingOnWrapLap(t *testing.T) {
	cs := NewCircularScan(10, 5)
	if _, ok := cs.Attach(); !ok { // A at position 0
		t.Fatal("attach failed")
	}
	cs.Advance()         // [0,5): A halfway
	b, ok := cs.Attach() // B at position 5
	if !ok {
		t.Fatal("late attach failed")
	}
	if _, _, _, more := cs.Advance(); !more { // [5,10): A completes, wrap
		t.Fatal("scan closed with B still active")
	}
	if b.Done() {
		t.Fatal("late joiner completed after half a circle")
	}
	if f, active, ok := cs.Remaining(); !ok || active != 1 || f != 0.5 {
		t.Fatalf("Remaining on wrap lap = %v,%v,%v want 0.5,1,true (B's residual, not cursor distance 1.0)", f, active, ok)
	}
}

func TestCircularScanZeroRows(t *testing.T) {
	cs := NewCircularScan(0, 8)
	c, ok := cs.Attach()
	if !ok {
		t.Fatal("attach failed")
	}
	sp, served, completed, more := cs.Advance()
	if more || sp.Len() != 0 || len(served) != 1 || len(completed) != 1 || !c.Done() {
		t.Errorf("zero-row scan: span=%v served=%d completed=%d more=%v done=%v",
			sp, len(served), len(completed), more, c.Done())
	}
}

func TestCircularScanDetach(t *testing.T) {
	cs := NewCircularScan(12, 4)
	a, _ := cs.Attach()
	b, _ := cs.Attach()
	cs.Advance()
	cs.Detach(a)
	// Only b remains; scan finishes when b completes its circle.
	laps := 0
	for {
		_, served, _, more := cs.Advance()
		for _, c := range served {
			if c == a {
				t.Fatal("detached consumer still served")
			}
		}
		if !more {
			break
		}
		if laps++; laps > 10 {
			t.Fatal("scan did not terminate")
		}
	}
	if !b.Done() {
		t.Error("remaining consumer did not complete")
	}
}

// TestCircularScanConcurrentAttachDetach exercises the registry under the
// race detector: one goroutine drives the scan while many goroutines
// attach, some detaching early. Every consumer that stays attached must be
// completed by the drive loop.
func TestCircularScanConcurrentAttachDetach(t *testing.T) {
	reg := NewExchange()
	cs := reg.Publish("t/concurrent", 512, 8)
	if reg.Lookup("t/concurrent") != cs {
		t.Fatal("Lookup did not return the published scan")
	}

	var mu sync.Mutex
	seen := make(map[int]int) // consumer id -> rows delivered
	attached := make(map[int]bool)

	var wg sync.WaitGroup
	root, _ := cs.Attach()
	mu.Lock()
	attached[root.ID()] = true
	mu.Unlock()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, ok := cs.Attach()
			if !ok {
				return // scan already finished; a fresh scan would start
			}
			if i%4 == 0 {
				cs.Detach(c)
				return
			}
			mu.Lock()
			attached[c.ID()] = true
			mu.Unlock()
		}(i)
	}

	for {
		sp, served, _, more := cs.Advance()
		mu.Lock()
		for _, c := range served {
			seen[c.ID()] += sp.Len()
		}
		mu.Unlock()
		if !more {
			break
		}
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for id := range attached {
		if seen[id] != 512 {
			t.Errorf("consumer %d saw %d rows, want 512", id, seen[id])
		}
	}
	if reg.InFlight() != 0 {
		t.Errorf("registry still tracks %d scans after close", reg.InFlight())
	}
}

// TestExchangeScanSupersede verifies a newer scan under the same key
// replaces the old one without the old scan's close evicting the new.
func TestExchangeScanSupersede(t *testing.T) {
	reg := NewExchange()
	old := reg.Publish("t/k", 8, 8)
	old.Attach()
	nw := reg.Publish("t/k", 8, 8)
	if reg.Lookup("t/k") != nw {
		t.Fatal("new scan not registered")
	}
	old.Close()
	if reg.Lookup("t/k") != nw {
		t.Error("old scan's close evicted the superseding scan")
	}
	nw.Close()
	if reg.InFlight() != 0 {
		t.Errorf("InFlight = %d after closing all, want 0", reg.InFlight())
	}
}
