package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func poolSchema(t *testing.T) Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "k", Type: Int64},
		Column{Name: "v", Type: Float64},
		Column{Name: "s", Type: String},
	)
}

func fillPage(t *testing.T, b *Batch, base int64, rows int) {
	t.Helper()
	for r := 0; r < rows; r++ {
		if err := b.AppendRow(base+int64(r), float64(base)+float64(r)/2, fmt.Sprintf("s%d-%d", base, r)); err != nil {
			t.Fatal(err)
		}
	}
}

// A last-owner Release on a pooled page recycles it, and the recycle is
// observable both in the stats and in a subsequent GetPage hit.
func TestPagePoolRecycleAndReuse(t *testing.T) {
	sch := poolSchema(t)
	g0, _, p0 := PagePoolStats()
	b := GetPage(sch, 8)
	fillPage(t, b, 100, 8)
	b.Release()
	g1, _, p1 := PagePoolStats()
	if g1-g0 != 1 || p1-p0 != 1 {
		t.Fatalf("gets/puts moved by %d/%d, want 1/1", g1-g0, p1-p0)
	}
	if b.Vecs != nil {
		t.Fatal("released page still exposes its vectors")
	}
	// The next page draws the recycled storage back out of the pool. Under
	// the race detector sync.Pool drops a random quarter of its puts, so the
	// round trip gets a few tries; a pool that never hands storage back
	// still fails.
	var c *Batch
	hit := false
	for try := 0; try < 8 && !hit; try++ {
		if c != nil {
			fillPage(t, c, 100, 8)
			c.Release()
		}
		_, h1, _ := PagePoolStats()
		c = GetPage(sch, 8)
		_, h2, _ := PagePoolStats()
		hit = h2 != h1
	}
	if !hit {
		t.Error("re-acquire after recycle hit the allocator, not the pool")
	}
	if c.Len() != 0 {
		t.Fatalf("pooled page not empty: %d rows", c.Len())
	}
	// Double release cannot recycle twice.
	_, _, p2 := PagePoolStats()
	c.Release()
	c.Release()
	if _, _, p3 := PagePoolStats(); p3-p2 != 1 {
		t.Fatalf("double Release recycled %d times, want 1", p3-p2)
	}
}

// Once the pool is warm, a GetPage → Release round trip allocates the Batch
// header and its Vecs slice and nothing else: column storage comes back out
// of the pool, and recycling it reuses the pool's slice boxes.
func TestPagePoolRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	sch := poolSchema(t)
	roundTrip := func() {
		b := GetPage(sch, 8)
		b.Vecs[0].AppendInt(1)
		b.Vecs[1].AppendFloat(2)
		b.Vecs[2].AppendString("x")
		b.Release()
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 2 {
		t.Errorf("warm GetPage/Release allocates %v objects, want 2 (Batch and Vecs)", allocs)
	}
}

// A warm scan page gathered into pooled storage allocates nothing past the
// page header the round trip above already pays for: AppendGather grows
// each recycled column at most once, in place.
func TestPagePoolWarmGatherAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	sch := poolSchema(t)
	src := NewBatch(sch, PageRows)
	fillPage(t, src, 0, PageRows)
	var sel []int
	for r := 0; r < PageRows; r += 1 + r%3 {
		sel = append(sel, r)
	}
	scan := func() {
		b := GetPage(sch, len(sel))
		for i := range b.Vecs {
			b.Vecs[i].AppendGather(src.Vecs[i], sel)
		}
		b.Release()
	}
	scan()
	if allocs := testing.AllocsPerRun(100, scan); allocs != 2 {
		t.Errorf("warm GetPage/AppendGather/Release allocates %v objects, want 2 (Batch and Vecs)", allocs)
	}
}

// Pages that were ever fanned out (MarkShared) are permanently exempt from
// recycling: released claims prove the claimants are done, not that no
// adopter kept an alias.
func TestPagePoolNeverRecyclesSharedPages(t *testing.T) {
	sch := poolSchema(t)
	b := GetPage(sch, 4)
	fillPage(t, b, 7, 4)
	b.MarkShared(2)
	_, _, p0 := PagePoolStats()
	b.Release() // reader 1's claim
	b.Release() // reader 2's claim
	b.Release() // owner: page dead, but it was shared — must not recycle
	if _, _, p1 := PagePoolStats(); p1 != p0 {
		t.Fatalf("shared page recycled %d times, want 0", p1-p0)
	}
	if b.Vecs == nil {
		t.Fatal("shared page storage was torn down")
	}
	if b.MustCol("k").I64[0] != 7 {
		t.Fatal("shared page content lost")
	}
}

// Writable's zero-copy move hands the storage to an adopter that keeps it
// (sink results outlive the pipeline), so the move clears poolability.
func TestPagePoolWritableMoveUnpools(t *testing.T) {
	sch := poolSchema(t)
	b := GetPage(sch, 4)
	fillPage(t, b, 1, 4)
	w := b.Writable()
	if w != b {
		t.Fatal("exclusive page did not move")
	}
	_, _, p0 := PagePoolStats()
	b.Release()
	if _, _, p1 := PagePoolStats(); p1 != p0 {
		t.Fatalf("moved page recycled %d times, want 0", p1-p0)
	}
	if w.MustCol("k").I64[0] != 1 {
		t.Fatal("adopted page content lost")
	}
}

// Fuzz the pool against the clone-on-write fan-out protocol: pooled pages
// are cloned, shared, written through Writable, released, recycled, and
// re-acquired concurrently, and no still-claimed reader ever observes its
// data change under it.
func TestPagePoolFanOutFuzz(t *testing.T) {
	sch := poolSchema(t)
	const (
		goroutines = 8
		rounds     = 300
		rows       = 16
	)
	check := func(b *Batch, base int64) error {
		for r := 0; r < rows; r++ {
			if b.MustCol("k").I64[r] != base+int64(r) {
				return fmt.Errorf("k[%d] = %d, want %d", r, b.MustCol("k").I64[r], base+int64(r))
			}
			if want := fmt.Sprintf("s%d-%d", base, r); b.MustCol("s").Str[r] != want {
				return fmt.Errorf("s[%d] = %q, want %q", r, b.MustCol("s").Str[r], want)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				base := int64(g*rounds+i) * rows
				b := GetPage(sch, rows)
				fillPage(t, b, base, rows)
				switch rng.Intn(3) {
				case 0:
					// FanOutClone shape: a reader keeps a private clone, the
					// original recycles; the clone must be unaffected by
					// whoever re-acquires and overwrites the storage.
					c := b.Clone()
					b.Release()
					next := GetPage(sch, rows)
					fillPage(t, next, base+1_000_000, rows)
					if err := check(c, base); err != nil {
						errs <- fmt.Errorf("clone corrupted after recycle: %w", err)
						return
					}
					c.Release()
					next.Release()
				case 1:
					// FanOutShare shape: claims released out of order, then a
					// Writable adopter takes the page; never recycled.
					b.MarkShared(2)
					b.Release()
					w := b.Writable() // drops the second claim, pays a clone
					if w == b {
						errs <- fmt.Errorf("Writable moved a page with a live claim")
						return
					}
					b.Release() // owner retires the shared original: no recycle
					if err := check(w, base); err != nil {
						errs <- fmt.Errorf("writable clone corrupted: %w", err)
						return
					}
					if err := check(b, base); err != nil {
						errs <- fmt.Errorf("shared original corrupted: %w", err)
						return
					}
				default:
					// Consuming-operator shape: fold and release immediately.
					b.Release()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
