package storage

import (
	"sync"
	"testing"
)

// coverageOf asserts spans cover [0, rows) exactly once and returns per-row
// visit counts for further checks.
func coverageOf(t *testing.T, what string, spans []Span, rows int) {
	t.Helper()
	seen := make([]int, rows)
	for _, sp := range spans {
		if sp.Lo < 0 || sp.Hi > rows || sp.Lo >= sp.Hi {
			t.Fatalf("%s: bad span [%d,%d) over %d rows", what, sp.Lo, sp.Hi, rows)
		}
		for r := sp.Lo; r < sp.Hi; r++ {
			seen[r]++
		}
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("%s: row %d covered %d times, want exactly once", what, r, n)
		}
	}
}

// The clones of one consumer group must collectively read every row exactly
// once, however their claims interleave.
func TestMorselDispenserExactlyOnce(t *testing.T) {
	const rows, morsel, clones = 10_000, 64, 4
	md := NewMorselDispenser(rows, morsel)
	var wg sync.WaitGroup
	perClone := make([][]Span, clones)
	for c := 0; c < clones; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				sp, ok := md.Next()
				if !ok {
					return
				}
				perClone[c] = append(perClone[c], sp)
			}
		}(c)
	}
	wg.Wait()
	if !md.Closed() {
		t.Fatal("dispenser not closed after full dispense")
	}
	var all []Span
	for _, spans := range perClone {
		all = append(all, spans...)
	}
	coverageOf(t, "group", all, rows)
}

func TestMorselDispenserEdges(t *testing.T) {
	// Zero rows: immediately exhausted.
	md := NewMorselDispenser(0, 16)
	if _, ok := md.Next(); ok {
		t.Fatal("zero-row dispenser handed out a span")
	}
	if !md.Closed() {
		t.Fatal("zero-row dispenser not closed")
	}
	// Close aborts mid-flight.
	md = NewMorselDispenser(100, 10)
	if _, ok := md.Next(); !ok {
		t.Fatal("first claim failed")
	}
	md.Close()
	if _, ok := md.Next(); ok {
		t.Fatal("closed dispenser handed out a span")
	}
	if md.Remaining() != 0 {
		t.Fatalf("closed dispenser Remaining = %g, want 0", md.Remaining())
	}
	// Non-divisible tail span.
	md = NewMorselDispenser(25, 10)
	var spans []Span
	for {
		sp, ok := md.Next()
		if !ok {
			break
		}
		spans = append(spans, sp)
	}
	coverageOf(t, "tail", spans, 25)
}

// Each PublishPartitioned call is its own consumer group: concurrent groups
// over the same key never steal each other's spans.
func TestPublishPartitionedIsolatedGroups(t *testing.T) {
	const rows = 1000
	r := NewExchange()
	a := r.PublishPartitioned("lineitem/q6", rows, 100)
	b := r.PublishPartitioned("lineitem/q6", rows, 100)
	if got := r.PartitionedInFlight(); got != 2 {
		t.Fatalf("PartitionedInFlight = %d, want 2", got)
	}
	drain := func(md *MorselDispenser) []Span {
		var spans []Span
		for {
			sp, ok := md.Next()
			if !ok {
				return spans
			}
			spans = append(spans, sp)
		}
	}
	coverageOf(t, "group a", drain(a), rows)
	coverageOf(t, "group b", drain(b), rows)
	if got := r.PartitionedInFlight(); got != 0 {
		t.Fatalf("PartitionedInFlight after drain = %d, want 0", got)
	}
	// Zero-row publish self-unregisters immediately.
	r.PublishPartitioned("empty", 0, 8)
	if got := r.PartitionedInFlight(); got != 0 {
		t.Fatalf("zero-row group left registered: %d", got)
	}
}

// Partitioned scans and in-flight circular scans coexist in one registry
// over the same table: the clone group sees every row exactly once between
// its members, while every circular-scan consumer — including a late joiner
// — sees every row exactly once individually. Run under -race in CI.
func TestPartitionedAndInflightExactlyOnce(t *testing.T) {
	const rows = 5_000
	r := NewExchange()

	var wg sync.WaitGroup
	// Clone group: 3 partitioned readers.
	md := r.PublishPartitioned("lineitem/shared-vs-split", rows, 37)
	perClone := make([][]Span, 3)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				sp, ok := md.Next()
				if !ok {
					return
				}
				perClone[c] = append(perClone[c], sp)
			}
		}(c)
	}

	// Circular scan: one driver thread, a founding consumer, and a late
	// joiner attaching mid-flight.
	cs := r.Publish("lineitem/shared-vs-split", rows, 41)
	first, ok := cs.Attach()
	if !ok {
		t.Fatal("fresh circular scan rejected attach")
	}
	perConsumer := map[int][]Span{}
	var late *ScanConsumer
	wg.Add(1)
	go func() {
		defer wg.Done()
		steps := 0
		for {
			sp, served, _, more := cs.Advance()
			if sp.Len() > 0 {
				for _, c := range served {
					perConsumer[c.ID()] = append(perConsumer[c.ID()], sp)
				}
			}
			steps++
			if steps == 20 && late == nil {
				if c, ok := cs.Attach(); ok {
					late = c
				}
			}
			if !more {
				return
			}
		}
	}()
	wg.Wait()

	var group []Span
	for _, spans := range perClone {
		group = append(group, spans...)
	}
	coverageOf(t, "clone group", group, rows)
	coverageOf(t, "founding consumer", perConsumer[first.ID()], rows)
	if late == nil {
		t.Fatal("late joiner never attached")
	}
	coverageOf(t, "late joiner", perConsumer[late.ID()], rows)
	if got := r.InFlight(); got != 0 {
		t.Fatalf("circular scans still registered: %d", got)
	}
	if got := r.PartitionedInFlight(); got != 0 {
		t.Fatalf("partitioned groups still registered: %d", got)
	}
}
