package storage

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return MustSchema(
		Column{Name: "id", Type: Int64},
		Column{Name: "price", Type: Float64},
		Column{Name: "ship", Type: Date},
		Column{Name: "comment", Type: String},
	)
}

func TestSchemaDuplicate(t *testing.T) {
	_, err := NewSchema(Column{Name: "a", Type: Int64}, Column{Name: "a", Type: Float64})
	if !errors.Is(err, ErrDupColumn) {
		t.Errorf("got %v, want ErrDupColumn", err)
	}
}

func TestSchemaIndexAndProject(t *testing.T) {
	s := testSchema()
	if i, err := s.Index("price"); err != nil || i != 1 {
		t.Errorf("Index(price) = %d, %v", i, err)
	}
	if _, err := s.Index("nope"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("got %v, want ErrNoColumn", err)
	}
	p, err := s.Project("comment", "id")
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.Cols[0].Name != "comment" || p.Cols[1].Name != "id" {
		t.Errorf("Project = %+v", p)
	}
	if _, err := s.Project("missing"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("got %v, want ErrNoColumn", err)
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex did not panic")
		}
	}()
	testSchema().MustIndex("ghost")
}

func TestBatchAppendAndAccess(t *testing.T) {
	b := NewBatch(testSchema(), 4)
	if err := b.AppendRow(int64(1), 9.5, int64(100), "hello"); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow(int64(2), 1.25, int64(200), "bye"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.MustCol("price").F64[1]; got != 1.25 {
		t.Errorf("price[1] = %g", got)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBatchAppendErrors(t *testing.T) {
	b := NewBatch(testSchema(), 1)
	if err := b.AppendRow(int64(1)); !errors.Is(err, ErrRowShape) {
		t.Errorf("arity: got %v, want ErrRowShape", err)
	}
	if err := b.AppendRow("x", 9.5, int64(1), "y"); !errors.Is(err, ErrTypeMism) {
		t.Errorf("type: got %v, want ErrTypeMism", err)
	}
	if err := b.AppendRow(int64(1), "bad", int64(1), "y"); !errors.Is(err, ErrTypeMism) {
		t.Errorf("float col: got %v, want ErrTypeMism", err)
	}
	if err := b.AppendRow(int64(1), 2.0, int64(1), 42); !errors.Is(err, ErrTypeMism) {
		t.Errorf("string col: got %v, want ErrTypeMism", err)
	}
}

func TestBatchSliceAndGather(t *testing.T) {
	b := NewBatch(testSchema(), 8)
	for i := 0; i < 8; i++ {
		if err := b.AppendRow(int64(i), float64(i)*1.5, int64(i*10), "s"); err != nil {
			t.Fatal(err)
		}
	}
	sl := b.Slice(2, 5)
	if sl.Len() != 3 || sl.MustCol("id").I64[0] != 2 {
		t.Errorf("Slice wrong: len=%d first=%d", sl.Len(), sl.MustCol("id").I64[0])
	}
	g := b.Gather([]int{7, 0, 3})
	want := []int64{7, 0, 3}
	for i, w := range want {
		if g.MustCol("id").I64[i] != w {
			t.Errorf("Gather[%d] = %d, want %d", i, g.MustCol("id").I64[i], w)
		}
	}
}

func TestBatchValidateCatchesSkew(t *testing.T) {
	b := NewBatch(testSchema(), 2)
	if err := b.AppendRow(int64(1), 1.0, int64(1), "a"); err != nil {
		t.Fatal(err)
	}
	b.Vecs[0].AppendInt(99) // skew one column
	if err := b.Validate(); err == nil {
		t.Error("skewed batch passed validation")
	}
}

func TestVectorGatherAndEqual(t *testing.T) {
	v := NewVector(String, 3)
	v.AppendString("a")
	v.AppendString("b")
	v.AppendString("c")
	g := v.Gather([]int{2, 0})
	if g.Str[0] != "c" || g.Str[1] != "a" {
		t.Errorf("Gather = %v", g.Str)
	}
	if !v.Equal(v) {
		t.Error("vector not equal to itself")
	}
	if v.Equal(g) {
		t.Error("different vectors compare equal")
	}
	other := NewVector(Int64, 0)
	if v.Equal(other) {
		t.Error("different types compare equal")
	}
}

func TestTableScanBatches(t *testing.T) {
	tbl := NewTable("t", testSchema())
	for i := 0; i < 100; i++ {
		tbl.MustAppend(int64(i), float64(i), int64(i), "x")
	}
	var batches, rows int
	tbl.Scan(32, func(b *Batch) bool {
		batches++
		rows += b.Len()
		return true
	})
	if batches != 4 || rows != 100 {
		t.Errorf("batches=%d rows=%d, want 4/100", batches, rows)
	}
	// Early termination.
	batches = 0
	tbl.Scan(32, func(b *Batch) bool {
		batches++
		return false
	})
	if batches != 1 {
		t.Errorf("early stop scanned %d batches, want 1", batches)
	}
	// Default batch size on nonpositive argument.
	rows = 0
	tbl.Scan(0, func(b *Batch) bool { rows += b.Len(); return true })
	if rows != 100 {
		t.Errorf("default batch scan saw %d rows", rows)
	}
}

func TestPageRoundTrip(t *testing.T) {
	b := NewBatch(testSchema(), 16)
	for i := 0; i < 16; i++ {
		if err := b.AppendRow(int64(i*7), float64(i)*0.25, int64(i+1000), "row"+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	page, err := EncodePage(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePage(page, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Vecs {
		if !b.Vecs[i].Equal(got.Vecs[i]) {
			t.Errorf("column %d mismatch after round-trip", i)
		}
	}
}

func TestDecodePageErrors(t *testing.T) {
	s := testSchema()
	if _, err := DecodePage([]byte{1, 2, 3}, s); !errors.Is(err, ErrPageCorrupt) {
		t.Errorf("garbage: got %v, want ErrPageCorrupt", err)
	}
	b := NewBatch(s, 1)
	if err := b.AppendRow(int64(1), 2.0, int64(3), "zz"); err != nil {
		t.Fatal(err)
	}
	page, err := EncodePage(b)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated page.
	if _, err := DecodePage(page[:len(page)-3], s); !errors.Is(err, ErrPageCorrupt) {
		t.Errorf("truncated: got %v, want ErrPageCorrupt", err)
	}
	// Trailing junk.
	if _, err := DecodePage(append(append([]byte{}, page...), 0xFF), s); !errors.Is(err, ErrPageCorrupt) {
		t.Errorf("trailing: got %v, want ErrPageCorrupt", err)
	}
	// Wrong schema arity.
	narrow := MustSchema(Column{Name: "only", Type: Int64})
	if _, err := DecodePage(page, narrow); !errors.Is(err, ErrPageCorrupt) {
		t.Errorf("arity: got %v, want ErrPageCorrupt", err)
	}
	// Wrong column type.
	twisted := MustSchema(
		Column{Name: "id", Type: Float64},
		Column{Name: "price", Type: Int64},
		Column{Name: "ship", Type: Date},
		Column{Name: "comment", Type: String},
	)
	if _, err := DecodePage(page, twisted); !errors.Is(err, ErrPageCorrupt) {
		t.Errorf("types: got %v, want ErrPageCorrupt", err)
	}
}

func TestTypeStrings(t *testing.T) {
	names := map[Type]string{Int64: "int64", Float64: "float64", Date: "date", String: "string"}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%v.String() = %q", ty, ty.String())
		}
	}
	if Type(9).String() == "" {
		t.Error("unknown type empty string")
	}
}

// Property: page encode/decode round-trips random batches exactly.
func TestQuickPageRoundTrip(t *testing.T) {
	s := testSchema()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		b := NewBatch(s, n)
		for i := 0; i < n; i++ {
			str := make([]byte, rng.Intn(30))
			for j := range str {
				str[j] = byte('a' + rng.Intn(26))
			}
			if err := b.AppendRow(rng.Int63(), rng.NormFloat64(), int64(rng.Intn(100000)), string(str)); err != nil {
				return false
			}
		}
		page, err := EncodePage(b)
		if err != nil {
			return false
		}
		got, err := DecodePage(page, s)
		if err != nil {
			return false
		}
		for i := range b.Vecs {
			if !b.Vecs[i].Equal(got.Vecs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Slice then Gather composes with direct Gather.
func TestQuickSliceGatherComposition(t *testing.T) {
	s := MustSchema(Column{Name: "v", Type: Int64})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		b := NewBatch(s, n)
		for i := 0; i < n; i++ {
			if err := b.AppendRow(rng.Int63n(1000)); err != nil {
				return false
			}
		}
		lo := rng.Intn(n - 1)
		hi := lo + 1 + rng.Intn(n-lo-1)
		sl := b.Slice(lo, hi)
		k := rng.Intn(hi - lo)
		direct := b.MustCol("v").I64[lo+k]
		viaSlice := sl.MustCol("v").I64[k]
		return direct == viaSlice
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Table epochs advance on the mutation path (Append) and via BumpEpoch, so
// cached artifacts derived from a table can detect staleness.
func TestTableEpochBumps(t *testing.T) {
	tbl := NewTable("t", MustSchema(Column{Name: "v", Type: Int64}))
	if got := tbl.Epoch(); got != 0 {
		t.Fatalf("fresh table epoch = %d, want 0", got)
	}
	tbl.MustAppend(int64(1))
	tbl.MustAppend(int64(2))
	if got := tbl.Epoch(); got != 2 {
		t.Fatalf("epoch after two appends = %d, want 2", got)
	}
	tbl.BumpEpoch()
	if got := tbl.Epoch(); got != 3 {
		t.Fatalf("epoch after BumpEpoch = %d, want 3", got)
	}
	// A failed append does not publish and must not bump.
	if err := tbl.Append("wrong type"); err == nil {
		t.Fatal("append of mistyped row succeeded")
	}
	if got := tbl.Epoch(); got != 3 {
		t.Fatalf("epoch after failed append = %d, want 3", got)
	}
}
