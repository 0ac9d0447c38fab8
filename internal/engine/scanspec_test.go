package engine

import (
	"testing"

	"repro/internal/relop"
	"repro/internal/storage"
)

// twoColTable builds a table with int and string columns and n rows.
func twoColTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("edge", storage.MustSchema(
		storage.Column{Name: "v", Type: storage.Int64},
		storage.Column{Name: "tag", Type: storage.String},
	))
	for i := 0; i < n; i++ {
		tbl.MustAppend(int64(i), "row")
	}
	return tbl
}

// A nil Cols projection must scan every column of the table, in schema
// order.
func TestScanSpecNilColsProjectsAll(t *testing.T) {
	tbl := twoColTable(t, 8)
	sc := &ScanSpec{Table: tbl}
	src, err := sc.newSource()
	if err != nil {
		t.Fatal(err)
	}
	got := src.Schema()
	want := tbl.Schema()
	if got.Arity() != want.Arity() {
		t.Fatalf("nil-Cols schema arity = %d, want %d", got.Arity(), want.Arity())
	}
	for i, c := range want.Cols {
		if got.Cols[i].Name != c.Name || got.Cols[i].Type != c.Type {
			t.Errorf("column %d = %+v, want %+v", i, got.Cols[i], c)
		}
	}
	b, eof, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b == nil || b.Len() != 8 || !eof {
		t.Fatalf("Next over 8 rows: batch=%v eof=%v", b, eof)
	}
	if b.MustCol("tag").Str[0] != "row" {
		t.Error("string column not scanned")
	}
}

// An empty table must report eof without producing a batch, and a full
// engine query over it must still complete (a global aggregate owes one
// zero row over empty input).
func TestScanSpecEmptyTable(t *testing.T) {
	tbl := twoColTable(t, 0)
	sc := &ScanSpec{Table: tbl, Cols: []string{"v"}}
	src, err := sc.newSource()
	if err != nil {
		t.Fatal(err)
	}
	b, eof, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b != nil || !eof {
		t.Fatalf("empty table scan: batch=%v eof=%v, want nil/true", b, eof)
	}

	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	scanSchema := storage.MustSchema(storage.Column{Name: "v", Type: storage.Int64})
	spec := QuerySpec{
		Signature: "edge/empty",
		Pivot:     0,
		Nodes: []NodeSpec{
			ScanNode("edge/scan", tbl, nil, []string{"v"}, 16),
			{Name: "edge/agg", Input: 0, Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewHashAgg(scanSchema, nil, []relop.AggSpec{
					{Func: relop.Count, As: "cnt"},
				}, emit)
			}},
		},
	}
	h, err := e.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.MustCol("cnt").I64[0] != 0 {
		t.Errorf("empty-table aggregate = %v rows, want one zero row", res.Len())
	}
}

// PageRows <= 0 takes the engine-wide granule, storage.PageRows, whatever
// the projection, and explicit values are honored.
func TestScanSpecPageRowsDerivation(t *testing.T) {
	tbl := twoColTable(t, 100)
	derived := &ScanSpec{Table: tbl, Cols: []string{"v"}}
	src, err := derived.newSource()
	if err != nil {
		t.Fatal(err)
	}
	if src.pageRows != storage.PageRows {
		t.Errorf("derived pageRows = %d, want %d", src.pageRows, storage.PageRows)
	}
	negative := &ScanSpec{Table: tbl, Cols: []string{"v"}, PageRows: -7}
	nsrc, err := negative.newSource()
	if err != nil {
		t.Fatal(err)
	}
	if nsrc.pageRows != src.pageRows {
		t.Errorf("negative PageRows = %d, want derived %d", nsrc.pageRows, src.pageRows)
	}
	explicit := &ScanSpec{Table: tbl, Cols: []string{"v"}, PageRows: 13}
	esrc, err := explicit.newSource()
	if err != nil {
		t.Fatal(err)
	}
	if esrc.pageRows != 13 {
		t.Errorf("explicit PageRows = %d, want 13", esrc.pageRows)
	}
	// The explicit quantum drives batch sizes: 100 rows in pages of 13.
	rows, pages := 0, 0
	for {
		b, eof, err := esrc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			rows += b.Len()
			pages++
			if b.Len() > 13 {
				t.Errorf("page of %d rows exceeds quantum 13", b.Len())
			}
		}
		if eof {
			break
		}
	}
	if rows != 100 || pages != 8 {
		t.Errorf("scan delivered %d rows in %d pages, want 100 in 8", rows, pages)
	}
}

// Every page the engine makes by default carries at most storage.PageRows
// rows: a default-granule scan source, relop.NewScan, aggregate emission
// (serial, partial and merge) and sort emission (Sort and SortMerge) each
// cut 2.5 × PageRows rows into exactly three pages.
func TestPageGranule(t *testing.T) {
	const rows = storage.PageRows * 5 / 2
	tbl := twoColTable(t, rows) // v is distinct per row: one group per row
	schema := tbl.Schema()
	groupBy := []string{"v"}
	specs := []relop.AggSpec{{Func: relop.Count, As: "n"}}
	keys := []relop.SortKey{{Column: "v", Desc: true}}
	// pushAll feeds the whole table as one page, so every output page
	// boundary is the emitter's own.
	pushAll := func(op relop.Operator, err error) error {
		if err != nil {
			return err
		}
		if err := op.Push(tbl.Data()); err != nil {
			return err
		}
		return op.Finish()
	}
	for _, tc := range []struct {
		name string
		run  func(emit relop.Emit) error
	}{
		{"engine scan source", func(emit relop.Emit) error {
			src, err := (&ScanSpec{Table: tbl}).newSource()
			if err != nil {
				return err
			}
			for {
				b, eof, err := src.Next()
				if err != nil {
					return err
				}
				if b != nil {
					if err := emit(b); err != nil {
						return err
					}
				}
				if eof {
					return nil
				}
			}
		}},
		{"relop.NewScan", func(emit relop.Emit) error {
			sc, err := relop.NewScan(tbl, nil, nil, 0, emit)
			if err != nil {
				return err
			}
			return sc.Run()
		}},
		{"HashAgg", func(emit relop.Emit) error {
			return pushAll(relop.NewHashAgg(schema, groupBy, specs, emit))
		}},
		{"partial HashAgg", func(emit relop.Emit) error {
			return pushAll(relop.NewPartialHashAgg(schema, groupBy, specs, emit))
		}},
		{"MergeHashAgg", func(emit relop.Emit) error {
			merge, err := relop.NewMergeHashAgg(schema, groupBy, specs, emit)
			if err != nil {
				return err
			}
			if err := pushAll(relop.NewPartialHashAgg(schema, groupBy, specs, merge.Push)); err != nil {
				return err
			}
			return merge.Finish()
		}},
		{"Sort", func(emit relop.Emit) error {
			return pushAll(relop.NewSort(schema, keys, emit))
		}},
		{"SortMerge", func(emit relop.Emit) error {
			// The table holds v ascending, so it is one sorted run.
			return pushAll(relop.NewSortMerge(schema, []relop.SortKey{{Column: "v"}}, emit))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pages, total := 0, 0
			err := tc.run(func(b *storage.Batch) error {
				pages++
				total += b.Len()
				if b.Len() > storage.PageRows {
					t.Errorf("page of %d rows exceeds storage.PageRows = %d", b.Len(), storage.PageRows)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if pages != 3 || total != rows {
				t.Errorf("%d rows in %d pages, want %d in 3", total, pages, rows)
			}
		})
	}
}
