package relop

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func ordersSchema() storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "okey", Type: storage.Int64},
		storage.Column{Name: "prio", Type: storage.String},
	)
}

func linesSchema() storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "lkey", Type: storage.Int64},
		storage.Column{Name: "amt", Type: storage.Float64},
	)
}

func makeOrders(t *testing.T, keys []int64) *storage.Batch {
	t.Helper()
	b := storage.NewBatch(ordersSchema(), len(keys))
	for _, k := range keys {
		if err := b.AppendRow(k, "p"); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func makeLines(t *testing.T, keys []int64) *storage.Batch {
	t.Helper()
	b := storage.NewBatch(linesSchema(), len(keys))
	for i, k := range keys {
		if err := b.AppendRow(k, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestHashJoinInner(t *testing.T) {
	hj, err := NewHashJoin(Inner, linesSchema(), "lkey", ordersSchema(), "okey", nil)
	if err != nil {
		t.Fatal(err)
	}
	emit, result := Collect(hj.OutSchema())
	hj.SetEmit(emit)
	if err := hj.PushBuild(makeLines(t, []int64{1, 2, 2, 5})); err != nil {
		t.Fatal(err)
	}
	if err := hj.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	if err := hj.Push(makeOrders(t, []int64{2, 3, 5})); err != nil {
		t.Fatal(err)
	}
	if err := hj.Finish(); err != nil {
		t.Fatal(err)
	}
	r := result()
	// okey=2 matches two build rows; okey=5 one; okey=3 none.
	if r.Len() != 3 {
		t.Fatalf("inner join emitted %d rows, want 3", r.Len())
	}
	keys := r.MustCol("okey").I64
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if keys[0] != 2 || keys[1] != 2 || keys[2] != 5 {
		t.Errorf("keys = %v", keys)
	}
	// Output carries probe cols + non-key build cols.
	if _, err := r.Col("amt"); err != nil {
		t.Errorf("missing build column: %v", err)
	}
}

func TestHashJoinSemiAndAnti(t *testing.T) {
	for _, tc := range []struct {
		kind JoinKind
		want []int64
	}{
		{Semi, []int64{2, 5}},
		{Anti, []int64{3}},
	} {
		hj, err := NewHashJoin(tc.kind, linesSchema(), "lkey", ordersSchema(), "okey", nil)
		if err != nil {
			t.Fatal(err)
		}
		emit, result := Collect(hj.OutSchema())
		hj.SetEmit(emit)
		if err := hj.PushBuild(makeLines(t, []int64{1, 2, 2, 5})); err != nil {
			t.Fatal(err)
		}
		if err := hj.FinishBuild(); err != nil {
			t.Fatal(err)
		}
		if err := hj.Push(makeOrders(t, []int64{2, 3, 5})); err != nil {
			t.Fatal(err)
		}
		if err := hj.Finish(); err != nil {
			t.Fatal(err)
		}
		r := result()
		got := append([]int64(nil), r.MustCol("okey").I64...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(tc.want) {
			t.Errorf("%v join: keys = %v, want %v", tc.kind, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%v join: keys = %v, want %v", tc.kind, got, tc.want)
				break
			}
		}
		// Semi/Anti output schema has only probe columns.
		if r.Schema.Arity() != 2 {
			t.Errorf("%v join schema arity = %d, want 2", tc.kind, r.Schema.Arity())
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	hj, err := NewHashJoin(LeftOuter, linesSchema(), "lkey", ordersSchema(), "okey", nil)
	if err != nil {
		t.Fatal(err)
	}
	emit, result := Collect(hj.OutSchema())
	hj.SetEmit(emit)
	if err := hj.PushBuild(makeLines(t, []int64{2, 2})); err != nil {
		t.Fatal(err)
	}
	if err := hj.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	if err := hj.Push(makeOrders(t, []int64{2, 9})); err != nil {
		t.Fatal(err)
	}
	if err := hj.Finish(); err != nil {
		t.Fatal(err)
	}
	r := result()
	// okey=2 matches twice; okey=9 appears once with null-extended amt=0.
	if r.Len() != 3 {
		t.Fatalf("left outer emitted %d rows, want 3", r.Len())
	}
	var unmatched int
	keys := r.MustCol("okey").I64
	for i := range keys {
		if keys[i] == 9 {
			unmatched++
			if r.MustCol("amt").F64[i] != 0 {
				t.Errorf("unmatched row amt = %g, want 0", r.MustCol("amt").F64[i])
			}
		}
	}
	if unmatched != 1 {
		t.Errorf("unmatched rows = %d, want 1", unmatched)
	}
}

func TestHashJoinMatchCounts(t *testing.T) {
	hj, err := NewHashJoin(Semi, linesSchema(), "lkey", ordersSchema(), "okey", func(*storage.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := hj.PushBuild(makeLines(t, []int64{1, 1, 1, 4})); err != nil {
		t.Fatal(err)
	}
	if err := hj.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	got := hj.MatchCounts([]int64{1, 4, 7})
	if got[0] != 3 || got[1] != 1 || got[2] != 0 {
		t.Errorf("MatchCounts = %v, want [3 1 0]", got)
	}
}

func TestHashJoinProtocolErrors(t *testing.T) {
	hj, err := NewHashJoin(Inner, linesSchema(), "lkey", ordersSchema(), "okey", func(*storage.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := hj.Push(makeOrders(t, []int64{1})); err == nil {
		t.Error("probe before FinishBuild accepted")
	}
	if err := hj.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	if err := hj.PushBuild(makeLines(t, []int64{1})); !errors.Is(err, ErrFinished) {
		t.Errorf("build after FinishBuild: %v", err)
	}
	if err := hj.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := hj.Push(makeOrders(t, []int64{1})); !errors.Is(err, ErrFinished) {
		t.Errorf("probe after Finish: %v", err)
	}
	// Float join keys rejected.
	bad := storage.MustSchema(storage.Column{Name: "f", Type: storage.Float64})
	if _, err := NewHashJoin(Inner, bad, "f", ordersSchema(), "okey", nil); !errors.Is(err, ErrType) {
		t.Errorf("float build key: %v", err)
	}
	if _, err := NewHashJoin(Inner, linesSchema(), "lkey", bad, "f", nil); !errors.Is(err, ErrType) {
		t.Errorf("float probe key: %v", err)
	}
	// Column collisions in Inner output rejected.
	dup := storage.MustSchema(
		storage.Column{Name: "okey", Type: storage.Int64},
		storage.Column{Name: "prio", Type: storage.String},
	)
	if _, err := NewHashJoin(Inner, dup, "okey", ordersSchema(), "okey", nil); err == nil {
		t.Error("colliding output columns accepted")
	}
}

func TestHashJoinBuildFanIn(t *testing.T) {
	hj, err := NewHashJoin(Semi, linesSchema(), "lkey", ordersSchema(), "okey", func(*storage.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	side := hj.BuildFanIn()
	if side.OutSchema().Arity() != 2 {
		t.Errorf("build side schema arity = %d", side.OutSchema().Arity())
	}
	if err := side.Push(makeLines(t, []int64{1})); err != nil {
		t.Fatal(err)
	}
	if err := side.Finish(); err != nil {
		t.Fatal(err)
	}
	if !hj.build.done {
		t.Error("BuildFanIn.Finish did not seal the build")
	}
	if !hj.probe.Attached() {
		t.Error("BuildFanIn.Finish did not attach the probe to the table")
	}
}

func TestNLJoin(t *testing.T) {
	outer := storage.MustSchema(storage.Column{Name: "a", Type: storage.Int64})
	inner := storage.MustSchema(storage.Column{Name: "b", Type: storage.Int64})
	// Band join: a < b.
	j, err := NewNLJoin(outer, inner, Cmp{Op: Lt, L: Col("a"), R: Col("b")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	emit, result := Collect(j.OutSchema())
	j.emit = emit
	ib := storage.NewBatch(inner, 3)
	for _, v := range []int64{1, 5, 9} {
		if err := ib.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.PushInner(ib); err != nil {
		t.Fatal(err)
	}
	if err := j.FinishInner(); err != nil {
		t.Fatal(err)
	}
	ob := storage.NewBatch(outer, 2)
	for _, v := range []int64{4, 8} {
		if err := ob.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Push(ob); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
	// 4 < {5,9} and 8 < {9}: 3 pairs.
	if got := result().Len(); got != 3 {
		t.Errorf("NLJ emitted %d rows, want 3", got)
	}
}

func TestNLJoinProtocol(t *testing.T) {
	outer := storage.MustSchema(storage.Column{Name: "a", Type: storage.Int64})
	inner := storage.MustSchema(storage.Column{Name: "b", Type: storage.Int64})
	j, err := NewNLJoin(outer, inner, nil, func(*storage.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	ob := storage.NewBatch(outer, 1)
	if err := ob.AppendRow(int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Push(ob); err == nil {
		t.Error("outer push before FinishInner accepted")
	}
}

func TestMergeJoin(t *testing.T) {
	left := storage.MustSchema(
		storage.Column{Name: "lk", Type: storage.Int64},
		storage.Column{Name: "lv", Type: storage.Float64},
	)
	right := storage.MustSchema(
		storage.Column{Name: "rk", Type: storage.Int64},
		storage.Column{Name: "rv", Type: storage.Float64},
	)
	mj, err := NewMergeJoin(left, "lk", right, "rk", nil)
	if err != nil {
		t.Fatal(err)
	}
	emit, result := Collect(mj.OutSchema())
	mj.emit = emit
	lb := storage.NewBatch(left, 4)
	for _, k := range []int64{1, 2, 2, 4} {
		if err := lb.AppendRow(k, float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	rb := storage.NewBatch(right, 4)
	for _, k := range []int64{2, 2, 3, 4} {
		if err := rb.AppendRow(k, float64(-k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mj.PushLeft(lb); err != nil {
		t.Fatal(err)
	}
	if err := mj.FinishLeft(); err != nil {
		t.Fatal(err)
	}
	if err := mj.Push(rb); err != nil {
		t.Fatal(err)
	}
	if err := mj.Finish(); err != nil {
		t.Fatal(err)
	}
	// key 2: 2x2 = 4 pairs; key 4: 1 pair. Total 5.
	if got := result().Len(); got != 5 {
		t.Errorf("merge join emitted %d rows, want 5", got)
	}
}

func TestMergeJoinProtocol(t *testing.T) {
	left := storage.MustSchema(storage.Column{Name: "lk", Type: storage.Int64})
	right := storage.MustSchema(storage.Column{Name: "rk", Type: storage.Int64})
	mj, err := NewMergeJoin(left, "lk", right, "rk", func(*storage.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := mj.Finish(); err == nil {
		t.Error("Finish before FinishLeft accepted")
	}
	bad := storage.MustSchema(storage.Column{Name: "f", Type: storage.Float64})
	if _, err := NewMergeJoin(bad, "f", right, "rk", nil); !errors.Is(err, ErrType) {
		t.Errorf("float merge key: %v", err)
	}
}

// Property: hash join inner result equals the brute-force cross-filtered
// count for random key sets.
func TestQuickHashJoinMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb, np := rng.Intn(40), rng.Intn(40)
		buildKeys := make([]int64, nb)
		for i := range buildKeys {
			buildKeys[i] = int64(rng.Intn(10))
		}
		probeKeys := make([]int64, np)
		for i := range probeKeys {
			probeKeys[i] = int64(rng.Intn(10))
		}
		want := 0
		for _, p := range probeKeys {
			for _, b := range buildKeys {
				if p == b {
					want++
				}
			}
		}
		hj, err := NewHashJoin(Inner, linesSchemaQuick(), "lkey", ordersSchemaQuick(), "okey", nil)
		if err != nil {
			return false
		}
		got := 0
		hj.SetEmit(func(b *storage.Batch) error { got += b.Len(); return nil })
		bb := storage.NewBatch(linesSchemaQuick(), nb)
		for i, k := range buildKeys {
			if err := bb.AppendRow(k, float64(i)); err != nil {
				return false
			}
		}
		pb := storage.NewBatch(ordersSchemaQuick(), np)
		for _, k := range probeKeys {
			if err := pb.AppendRow(k, "p"); err != nil {
				return false
			}
		}
		if err := hj.PushBuild(bb); err != nil {
			return false
		}
		if err := hj.FinishBuild(); err != nil {
			return false
		}
		if err := hj.Push(pb); err != nil {
			return false
		}
		if err := hj.Finish(); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: merge join over sorted inputs agrees with hash join.
func TestQuickMergeJoinAgreesWithHashJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := 1+rng.Intn(30), 1+rng.Intn(30)
		lk := make([]int64, nl)
		for i := range lk {
			lk[i] = int64(rng.Intn(8))
		}
		rk := make([]int64, nr)
		for i := range rk {
			rk[i] = int64(rng.Intn(8))
		}
		sort.Slice(lk, func(i, j int) bool { return lk[i] < lk[j] })
		sort.Slice(rk, func(i, j int) bool { return rk[i] < rk[j] })
		left := storage.MustSchema(storage.Column{Name: "lk", Type: storage.Int64})
		right := storage.MustSchema(storage.Column{Name: "rk", Type: storage.Int64})
		mj, err := NewMergeJoin(left, "lk", right, "rk", nil)
		if err != nil {
			return false
		}
		mjRows := 0
		mj.emit = func(b *storage.Batch) error { mjRows += b.Len(); return nil }
		lb := storage.NewBatch(left, nl)
		for _, k := range lk {
			if err := lb.AppendRow(k); err != nil {
				return false
			}
		}
		rb := storage.NewBatch(right, nr)
		for _, k := range rk {
			if err := rb.AppendRow(k); err != nil {
				return false
			}
		}
		if err := mj.PushLeft(lb); err != nil {
			return false
		}
		if err := mj.FinishLeft(); err != nil {
			return false
		}
		if err := mj.Push(rb); err != nil {
			return false
		}
		if err := mj.Finish(); err != nil {
			return false
		}
		want := 0
		for _, a := range lk {
			for _, b := range rk {
				if a == b {
					want++
				}
			}
		}
		return mjRows == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func linesSchemaQuick() storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "lkey", Type: storage.Int64},
		storage.Column{Name: "amt", Type: storage.Float64},
	)
}

func ordersSchemaQuick() storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "okey", Type: storage.Int64},
		storage.Column{Name: "prio", Type: storage.String},
	)
}

// FootprintBytes charges the cache for the materialized rows plus the key
// index, and grows with the build.
func TestHashTableFootprintBytes(t *testing.T) {
	schema := storage.MustSchema(storage.Column{Name: "k", Type: storage.Int64})
	build := func(rows int) *HashTable {
		jb, err := NewJoinBuild(schema, "k")
		if err != nil {
			t.Fatal(err)
		}
		b := storage.NewBatch(schema, rows)
		for i := 0; i < rows; i++ {
			b.Vecs[0].AppendInt(int64(i % 8)) // 8 buckets, rows/8 refs each
		}
		if err := jb.Push(b); err != nil {
			t.Fatal(err)
		}
		if err := jb.Finish(); err != nil {
			t.Fatal(err)
		}
		return jb.Table()
	}
	small := build(16)
	large := build(256)
	if small.FootprintBytes() <= int64(small.Rows().EstimatedBytes()) {
		t.Errorf("footprint %d must exceed raw row bytes %d (index overhead)",
			small.FootprintBytes(), small.Rows().EstimatedBytes())
	}
	if large.FootprintBytes() <= small.FootprintBytes() {
		t.Errorf("footprint must grow with the build: %d rows -> %d bytes, %d rows -> %d bytes",
			16, small.FootprintBytes(), 256, large.FootprintBytes())
	}
}

// A Semi or Anti join builds the key-set table, every other kind the
// row-carrying one; a key-set table serves only the kinds that read no
// build row, and Matches on it panics rather than report no rows.
func TestKeySetTableForm(t *testing.T) {
	build, _ := joinDiffCase{buildPages: []int{30, 30}, buildKeys: 9}.build(rand.New(rand.NewSource(2)))
	for _, kind := range []JoinKind{Inner, Semi, Anti, LeftOuter} {
		hj, err := NewHashJoin(kind, joinDiffBuild, "bk", joinDiffProbe, "pk", func(*storage.Batch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range build {
			if err := hj.PushBuild(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := hj.FinishBuild(); err != nil {
			t.Fatal(err)
		}
		if got, want := hj.Table().KeySet(), kind == Semi || kind == Anti; got != want {
			t.Errorf("%v join: KeySet() = %v, want %v", kind, got, want)
		}
	}
	keys := sealTable(t, Anti, 0, build)
	for _, kind := range []JoinKind{Inner, Semi, Anti, LeftOuter} {
		pr, err := NewHashJoinProbe(kind, joinDiffBuild, "bk", joinDiffProbe, "pk", nil)
		if err != nil {
			t.Fatal(err)
		}
		err = pr.AttachTable(keys)
		if reads := kind == Inner || kind == LeftOuter; (err != nil) != reads {
			t.Errorf("%v probe of a key-set table: AttachTable err = %v", kind, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Matches on a key-set table did not panic")
		}
	}()
	keys.Matches(0)
}
