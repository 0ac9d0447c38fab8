package storage

import (
	"sync"
	"testing"
)

// cloneFixture builds a batch with one column of every vector type and two
// rows of distinctive values.
func cloneFixture(t *testing.T) *Batch {
	t.Helper()
	s := MustSchema(
		Column{Name: "i", Type: Int64},
		Column{Name: "f", Type: Float64},
		Column{Name: "s", Type: String},
		Column{Name: "d", Type: Date},
	)
	b := NewBatch(s, 2)
	if err := b.AppendRow(int64(7), 1.5, "alpha", int64(9131)); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow(int64(-3), -2.25, "beta", int64(0)); err != nil {
		t.Fatal(err)
	}
	return b
}

// Clone must deep-copy every vector type: equal contents, fully independent
// storage.
func TestBatchCloneAllVectorTypes(t *testing.T) {
	b := cloneFixture(t)
	c := b.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if c.Len() != b.Len() {
		t.Fatalf("clone has %d rows, want %d", c.Len(), b.Len())
	}
	if c.MustCol("i").I64[0] != 7 || c.MustCol("f").F64[1] != -2.25 ||
		c.MustCol("s").Str[0] != "alpha" || c.MustCol("d").I64[0] != 9131 {
		t.Error("clone contents differ from original")
	}
	// Mutating the clone must never reach the original, for any type.
	c.MustCol("i").I64[0] = 99
	c.MustCol("f").F64[1] = 99.5
	c.MustCol("s").Str[0] = "mutated"
	c.MustCol("d").I64[0] = 1
	if b.MustCol("i").I64[0] != 7 || b.MustCol("f").F64[1] != -2.25 ||
		b.MustCol("s").Str[0] != "alpha" || b.MustCol("d").I64[0] != 9131 {
		t.Error("mutating the clone changed the original")
	}
	// And appends to the clone must not grow the original.
	c.Vecs[0].AppendInt(1)
	if b.Vecs[0].Len() != 2 {
		t.Error("appending to a cloned vector grew the original")
	}
}

// Cloning empty batches (zero rows, and zero columns) must work and stay
// independent.
func TestBatchCloneEmpty(t *testing.T) {
	s := MustSchema(Column{Name: "x", Type: Int64}, Column{Name: "y", Type: String})
	empty := NewBatch(s, 0)
	c := empty.Clone()
	if c.Len() != 0 {
		t.Fatalf("clone of empty batch has %d rows", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("empty clone invalid: %v", err)
	}
	c.Vecs[0].AppendInt(5)
	if empty.Vecs[0].Len() != 0 {
		t.Error("append to empty clone grew the original")
	}
	colless := &Batch{}
	if cc := colless.Clone(); len(cc.Vecs) != 0 || cc.Len() != 0 {
		t.Error("clone of column-less batch is not empty")
	}
}

// The refcounted fan-out protocol: a batch marked shared is read-only;
// Writable returns a private deep copy while readers remain and the
// original once exclusively owned again (the move path).
func TestBatchSharedWritable(t *testing.T) {
	b := cloneFixture(t)
	if b.Shared() {
		t.Fatal("fresh batch reports shared")
	}
	// Exclusive ownership: Writable is a move, not a copy.
	if w := b.Writable(); w != b {
		t.Error("Writable cloned an exclusively-owned batch")
	}
	// Fan out to 3 consumers: 2 extra readers.
	b.MarkShared(2)
	if !b.Shared() {
		t.Fatal("marked batch does not report shared")
	}
	w1 := b.Writable()
	if w1 == b {
		t.Fatal("Writable returned the shared original")
	}
	w1.MustCol("i").I64[0] = 42
	if b.MustCol("i").I64[0] != 7 {
		t.Error("write to Writable copy reached the shared page")
	}
	// One claim released by w1; one reader left.
	if !b.Shared() {
		t.Fatal("batch lost shared status while a reader remains")
	}
	w2 := b.Writable()
	if w2 == b {
		t.Fatal("Writable returned the original while still shared")
	}
	// All claims released: the last consumer owns the page and may move it.
	if b.Shared() {
		t.Fatal("batch still shared after all claims released")
	}
	if w3 := b.Writable(); w3 != b {
		t.Error("last consumer did not receive the original (move)")
	}
	// MarkShared with non-positive counts is a no-op.
	b2 := cloneFixture(t)
	b2.MarkShared(0)
	b2.MarkShared(-5)
	if b2.Shared() {
		t.Error("non-positive MarkShared made the batch shared")
	}
}

// Two consumers adopt one page fanned out to both. The one that clones must
// finish copying before it gives up its claim, because the other then moves
// the original and appends to it. Under the race detector a copy that still
// reads the original after dropping the claim is reported as a data race.
func TestBatchWritableClonesBeforeDroppingClaim(t *testing.T) {
	for round := 0; round < 50; round++ {
		b := cloneFixture(t)
		b.MarkShared(1)
		got := make([]*Batch, 2)
		var wg sync.WaitGroup
		for c := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := b.Writable()
				if err := w.AppendRow(int64(c), 0.5, "gamma", int64(1)); err != nil {
					t.Error(err)
				}
				got[c] = w
			}()
		}
		wg.Wait()
		if (got[0] == b) == (got[1] == b) {
			t.Fatalf("round %d: want exactly one consumer to move the original", round)
		}
		for c, w := range got {
			if w.Len() != 3 || w.MustCol("i").I64[0] != 7 || w.MustCol("i").I64[2] != int64(c) {
				t.Fatalf("round %d consumer %d: got %d rows, i = %v", round, c, w.Len(), w.MustCol("i").I64)
			}
		}
	}
}

// Release drops reader claims without copying, is a guarded no-op past
// zero, and feeds the process-wide share counters next to Writable's
// move/copy split.
func TestBatchReleaseAndShareStats(t *testing.T) {
	m0, _, r0 := ShareStats()
	b := cloneFixture(t)
	b.Release() // never shared: no-op, no counter movement
	if _, _, r := ShareStats(); r != r0 {
		t.Error("Release on a never-shared batch counted")
	}
	// Fan out to 3 consumers (2 claims). Two consumers finish without
	// writing and release; the last adopter then moves instead of cloning.
	b.MarkShared(2)
	b.Release()
	b.Release()
	b.Release() // past zero: guarded no-op
	if b.Shared() {
		t.Fatal("batch still shared after releases")
	}
	if w := b.Writable(); w != b {
		t.Fatal("adopter cloned although every other reader released")
	}
	m1, c1, r1 := ShareStats()
	if r1-r0 != 2 {
		t.Errorf("releases counted = %d, want 2", r1-r0)
	}
	if m1-m0 != 1 {
		t.Errorf("moves counted = %d, want 1", m1-m0)
	}
	// A batch with a live claim still pays the clone.
	b2 := cloneFixture(t)
	b2.MarkShared(1)
	if w := b2.Writable(); w == b2 {
		t.Fatal("Writable returned the original while a reader remains")
	}
	if _, c2, _ := ShareStats(); c2-c1 != 1 {
		t.Errorf("copies counted = %d, want 1", c2-c1)
	}
}
