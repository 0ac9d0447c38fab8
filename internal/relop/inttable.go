package relop

import "math/bits"

// intTable maps int64 keys to dense ids 0, 1, 2, … handed out in
// first-insertion order: the key index shared by the single-integer-key
// aggregate and the hash-join build. It is an open-addressed, linearly probed
// table of (key, id) slots kept at most half full, so a lookup touches one
// cache line in the common case and inserting never allocates per key.
type intTable struct {
	slots []intSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

// intSlot holds id+1 so the zero slot reads as empty.
type intSlot struct {
	key int64
	id1 int32
}

// newIntTable returns a table that holds hint keys without growing.
func newIntTable(hint int) *intTable {
	size := 16
	if hint > size/2 {
		size = 1 << bits.Len(uint(2*hint-1))
	}
	t := &intTable{}
	t.resize(size)
	return t
}

// Len returns the number of distinct keys.
func (t *intTable) Len() int { return t.n }

func (t *intTable) home(k int64) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the id of k, or -1.
func (t *intTable) find(k int64) int32 {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.id1 == 0 {
			return -1
		}
		if s.key == k {
			return s.id1 - 1
		}
	}
}

// findOrAdd returns the id of k, assigning the next dense id on first sight.
func (t *intTable) findOrAdd(k int64) (id int32, added bool) {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id1 == 0 {
			if 2*(t.n+1) > len(t.slots) {
				t.grow()
				return t.findOrAdd(k)
			}
			t.n++
			s.key, s.id1 = k, int32(t.n)
			return s.id1 - 1, true
		}
		if s.key == k {
			return s.id1 - 1, false
		}
	}
}

// reset empties the table for reuse, keeping its slots: a recycled key table
// starts at the size its last use grew it to, so a build no larger than that
// one never regrows it.
func (t *intTable) reset() {
	clear(t.slots)
	t.n = 0
}

func (t *intTable) grow() { t.resize(2 * len(t.slots)) }

// resize rehashes the table into size slots (a power of two).
func (t *intTable) resize(size int) {
	old := t.slots
	t.slots = make([]intSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.id1 == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].id1 != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
