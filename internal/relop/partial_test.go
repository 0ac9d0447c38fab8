package relop

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

func partialTestSchema() storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "k", Type: storage.Int64},
		storage.Column{Name: "tag", Type: storage.String},
		storage.Column{Name: "v", Type: storage.Float64},
	)
}

func randomBatches(t *testing.T, s storage.Schema, batches, rowsPer int, seed int64) []*storage.Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*storage.Batch, batches)
	for i := range out {
		b := storage.NewBatch(s, rowsPer)
		for r := 0; r < rowsPer; r++ {
			if err := b.AppendRow(
				int64(rng.Intn(7)),
				fmt.Sprintf("t%d", rng.Intn(3)),
				rng.Float64()*100-50,
			); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = b
	}
	return out
}

// collectRows returns an Emit that renders every emitted row to a canonical
// string, preserving emission order.
func collectRows() (Emit, *[]string) {
	var rows []string
	emit := func(b *storage.Batch) error {
		for i := 0; i < b.Len(); i++ {
			s := ""
			for c, col := range b.Schema.Cols {
				switch col.Type {
				case storage.Int64, storage.Date:
					s += fmt.Sprintf("|%d", b.Vecs[c].I64[i])
				case storage.Float64:
					s += fmt.Sprintf("|%.9f", b.Vecs[c].F64[i])
				case storage.String:
					s += "|" + b.Vecs[c].Str[i]
				}
			}
			rows = append(rows, s)
		}
		return nil
	}
	return emit, &rows
}

func assertRowsEqual(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

// runSerialAgg aggregates all input through one serial HashAgg.
func runSerialAgg(t *testing.T, s storage.Schema, groupBy []string, specs []AggSpec, input []*storage.Batch) []string {
	t.Helper()
	emit, rows := collectRows()
	agg, err := NewHashAgg(s, groupBy, specs, emit)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range input {
		if err := agg.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := agg.Finish(); err != nil {
		t.Fatal(err)
	}
	return *rows
}

// runPartialMergeAgg splits input across clones partial aggregates fanning
// into one merge.
func runPartialMergeAgg(t *testing.T, s storage.Schema, groupBy []string, specs []AggSpec, input []*storage.Batch, clones int) []string {
	t.Helper()
	emit, rows := collectRows()
	merge, err := NewMergeHashAgg(s, groupBy, specs, emit)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clones; c++ {
		part, err := NewPartialHashAgg(s, groupBy, specs, merge.Push)
		if err != nil {
			t.Fatal(err)
		}
		for i := c; i < len(input); i += clones {
			if err := part.Push(input[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := part.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := merge.Finish(); err != nil {
		t.Fatal(err)
	}
	return *rows
}

// Partial aggregation over disjoint partitions, merged, must equal one
// serial aggregation over the whole input — for every aggregate function,
// grouped and global, including empty input (where the merge owes the
// global zero row) and clones that saw no rows (whose partials emit
// nothing, so their +Inf/-Inf min/max seeds never leak).
func TestPartialMergeAggEquivalence(t *testing.T) {
	s := partialTestSchema()
	specs := []AggSpec{
		{Func: Sum, Expr: Col("v"), As: "sum_v"},
		{Func: Count, As: "n"},
		{Func: Avg, Expr: Col("v"), As: "avg_v"},
		{Func: Min, Expr: Col("v"), As: "min_v"},
		{Func: Max, Expr: Col("v"), As: "max_v"},
	}
	for _, tc := range []struct {
		name    string
		groupBy []string
		batches int
		clones  int
	}{
		{"grouped", []string{"k", "tag"}, 9, 3},
		{"global", nil, 9, 3},
		{"grouped-empty", []string{"k"}, 0, 3},
		{"global-empty", nil, 0, 3},
		{"idle-clones", nil, 2, 5}, // more clones than batches: some see nothing
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := randomBatches(t, s, tc.batches, 64, 7)
			want := runSerialAgg(t, s, tc.groupBy, specs, input)
			got := runPartialMergeAgg(t, s, tc.groupBy, specs, input, tc.clones)
			assertRowsEqual(t, tc.name, got, want)
		})
	}
}

// The merge's output schema must match the serial aggregate's exactly.
func TestMergeAggSchemaMatchesSerial(t *testing.T) {
	s := partialTestSchema()
	specs := []AggSpec{
		{Func: Avg, Expr: Col("v"), As: "avg_v"},
		{Func: Count, As: "n"},
	}
	serial, err := NewHashAgg(s, []string{"k"}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	merge, err := NewMergeHashAgg(s, []string{"k"}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sg, mg := serial.OutSchema(), merge.OutSchema()
	if len(sg.Cols) != len(mg.Cols) {
		t.Fatalf("merge arity %d, serial %d", len(mg.Cols), len(sg.Cols))
	}
	for i := range sg.Cols {
		if sg.Cols[i] != mg.Cols[i] {
			t.Fatalf("col %d: merge %+v, serial %+v", i, mg.Cols[i], sg.Cols[i])
		}
	}
	// And the partial layout carries Avg's count separately.
	ps, err := PartialAggSchema(s, []string{"k"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Cols) != 4 { // k, avg_v sum, avg_v count, n
		t.Fatalf("partial arity %d, want 4", len(ps.Cols))
	}
}

// SortMerge over per-clone sorted partitions must equal one serial Sort.
func TestSortMergeEquivalence(t *testing.T) {
	s := partialTestSchema()
	keys := []SortKey{{Column: "k"}, {Column: "v", Desc: true}}
	// 3 600 rows over 3 clones: each clone emits two sorted pages, and the
	// merge flushes full pages mid-merge.
	input := randomBatches(t, s, 9, 400, 11)

	wantEmit, want := collectRows()
	serial, err := NewSort(s, keys, wantEmit)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range input {
		if err := serial.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := serial.Finish(); err != nil {
		t.Fatal(err)
	}

	gotEmit, got := collectRows()
	merge, err := NewSortMerge(s, keys, gotEmit)
	if err != nil {
		t.Fatal(err)
	}
	const clones = 3
	for c := 0; c < clones; c++ {
		clone, err := NewSort(s, keys, merge.Push)
		if err != nil {
			t.Fatal(err)
		}
		for i := c; i < len(input); i += clones {
			if err := clone.Push(input[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := clone.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := merge.Finish(); err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, "sortmerge", *got, *want)
}

// SortMerge edge cases: no input at all, and a single run (bulk tail path).
func TestSortMergeEdges(t *testing.T) {
	s := partialTestSchema()
	keys := []SortKey{{Column: "v"}}

	emit, rows := collectRows()
	sm, err := NewSortMerge(s, keys, emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(*rows) != 0 {
		t.Fatalf("empty merge emitted %d rows", len(*rows))
	}

	// One pre-sorted run passes through unchanged, exercising the bulk tail
	// across page boundaries.
	input := randomBatches(t, s, 1, 5*storage.PageRows/2, 5)
	wantEmit, want := collectRows()
	srt, err := NewSort(s, keys, wantEmit)
	if err != nil {
		t.Fatal(err)
	}
	sortedEmit, sorted := Collect(s)
	srt2, err := NewSort(s, keys, sortedEmit)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range input {
		if err := srt.Push(b); err != nil {
			t.Fatal(err)
		}
		if err := srt2.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := srt.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := srt2.Finish(); err != nil {
		t.Fatal(err)
	}
	gotEmit, got := collectRows()
	sm2, err := NewSortMerge(s, keys, gotEmit)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm2.Push(sorted()); err != nil {
		t.Fatal(err)
	}
	if err := sm2.Finish(); err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, "single run", *got, *want)
}
