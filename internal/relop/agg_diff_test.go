package relop

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// sameBatch reports the first difference between two batches, comparing
// floats by bit pattern so that NaN keys and signed zeros count.
func sameBatch(got, want *storage.Batch) error {
	if !got.Schema.Equal(want.Schema) {
		return fmt.Errorf("schema %v, want %v", got.Schema, want.Schema)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	for c, w := range want.Vecs {
		g := got.Vecs[c]
		if g.Type != w.Type || g.Len() != w.Len() {
			return fmt.Errorf("column %q is %v×%d, want %v×%d", want.Schema.Cols[c].Name, g.Type, g.Len(), w.Type, w.Len())
		}
		for r := 0; r < w.Len(); r++ {
			var ok bool
			switch w.Type {
			case storage.Int64, storage.Date:
				ok = g.I64[r] == w.I64[r]
			case storage.Float64:
				ok = math.Float64bits(g.F64[r]) == math.Float64bits(w.F64[r])
			case storage.String:
				ok = g.Str[r] == w.Str[r]
			}
			if !ok {
				return fmt.Errorf("row %d column %q differs:\n got %v\nwant %v", r, want.Schema.Cols[c].Name, rowOf(got, r), rowOf(want, r))
			}
		}
	}
	return nil
}

func rowOf(b *storage.Batch, r int) []any {
	row := make([]any, len(b.Vecs))
	for c, v := range b.Vecs {
		switch v.Type {
		case storage.Int64, storage.Date:
			row[c] = v.I64[r]
		case storage.Float64:
			row[c] = v.F64[r]
		case storage.String:
			row[c] = v.Str[r]
		}
	}
	return row
}

// sameBatches compares two emission sequences page for page: same number of
// pages, same rows in the same order on each.
func sameBatches(got, want []*storage.Batch) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pages emitted, want %d", len(got), len(want))
	}
	for i := range want {
		if err := sameBatch(got[i], want[i]); err != nil {
			return fmt.Errorf("page %d: %w", i, err)
		}
	}
	return nil
}

func collectPages(dst *[]*storage.Batch) Emit {
	return func(b *storage.Batch) error {
		*dst = append(*dst, b)
		return nil
	}
}

// aggDiffCase is one differential scenario: the key columns' values are drawn
// from small pools so groups repeat; x (float) and n (int) are the aggregated
// inputs.
type aggDiffCase struct {
	name    string
	keys    []storage.Column
	pool    [][]any // per key column: the values rows draw from
	later   [][]any // if set, the pools of every page after the first
	groupBy []string
	pages   []int // rows per page
}

func intPool(vals ...int64) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func aggDiffCases() []aggDiffCase {
	intCol := storage.Column{Name: "k", Type: storage.Int64}
	dateCol := storage.Column{Name: "d", Type: storage.Date}
	strCol := storage.Column{Name: "s", Type: storage.String}
	fltCol := storage.Column{Name: "f", Type: storage.Float64}
	var wide []any
	for i := int64(-1200); i < 1200; i++ {
		wide = append(wide, i*7)
	}
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // a second NaN payload
	return []aggDiffCase{
		{name: "no input", keys: []storage.Column{intCol}, pool: [][]any{intPool(1)}, groupBy: []string{"k"}},
		{name: "empty pages", keys: []storage.Column{intCol}, pool: [][]any{intPool(1)}, groupBy: []string{"k"}, pages: []int{0, 0}},
		{name: "global, no input", keys: []storage.Column{intCol}, pool: [][]any{intPool(1)}},
		{name: "global, empty pages", keys: []storage.Column{intCol}, pool: [][]any{intPool(1)}, pages: []int{0}},
		{name: "global", keys: []storage.Column{intCol}, pool: [][]any{intPool(1, 2)}, pages: []int{40, 1, 0, 25}},
		{name: "int key: decimal order is not numeric order", keys: []storage.Column{intCol},
			pool: [][]any{intPool(2, 10, -1, -10, 0, 9, 100, -9, math.MaxInt64, math.MinInt64)}, groupBy: []string{"k"}, pages: []int{64, 64, 3}},
		{name: "int key, more groups than an output page holds", keys: []storage.Column{intCol},
			pool: [][]any{wide}, groupBy: []string{"k"}, pages: []int{900, 900, 900, 900}},
		{name: "date key", keys: []storage.Column{dateCol},
			pool: [][]any{intPool(9000, 10000, 999, 10001)}, groupBy: []string{"d"}, pages: []int{50, 50}},
		{name: "string key with separators, quotes and NULs", keys: []storage.Column{strCol},
			pool:    [][]any{{"", "|", "a|b", "a", "|b", `"`, `a"b`, `\`, "\x00", "a\x00", "a\x00b", "é", "\n", "s\"a\"|"}},
			groupBy: []string{"s"}, pages: []int{70, 70, 5}},
		{name: "float key with signed zeros, NaNs and infinities", keys: []storage.Column{fltCol},
			pool:    [][]any{{0.0, math.Copysign(0, -1), math.NaN(), nan2, math.Inf(1), math.Inf(-1), 1.5, -1.5, 1e21, 1e-7, 100.0, 2.0, 10.0}},
			groupBy: []string{"f"}, pages: []int{80, 80}},
		{name: "two string keys (Q1 shape)", keys: []storage.Column{strCol, {Name: "t", Type: storage.String}},
			pool: [][]any{{"A", "N", "R"}, {"F", "O"}}, groupBy: []string{"s", "t"}, pages: []int{51, 51, 51, 7}},
		{name: "mixed keys, where only the length prefix separates columns", keys: []storage.Column{strCol, intCol, fltCol, {Name: "t", Type: storage.String}},
			pool:    [][]any{{"a", "ab", ""}, intPool(1, 98, -1), {0.5, math.NaN()}, {"b", "", "bb"}},
			groupBy: []string{"s", "k", "f", "t"}, pages: []int{200, 200}},
		{name: "group-by order differs from column order", keys: []storage.Column{strCol, intCol},
			pool: [][]any{{"x", "y"}, intPool(3, 30)}, groupBy: []string{"k", "s"}, pages: []int{33, 33}},
		// String keys pack into one word while a row's lengths and bytes fit
		// in 8 bytes: 1 + 7 fits, 1 + 8 does not.
		{name: "string key of 7 bytes (packs)", keys: []storage.Column{strCol},
			pool: [][]any{{"1-URGEN", "1-URGEM", "2-HIGH\x00", "3-MEDIU", "\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00\x00\x00\x00\x01"}}, groupBy: []string{"s"}, pages: []int{60, 60}},
		{name: "string key of 8 bytes (never packs)", keys: []storage.Column{strCol},
			pool: [][]any{{"1-URGENT", "1-URGENS", "2-HIGH\x00\x00", "3-MEDIUM", "\x00\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x01"}}, groupBy: []string{"s"}, pages: []int{60, 60}},
		{name: "four one-byte string keys (exactly 8 bytes)",
			keys: []storage.Column{strCol, {Name: "t", Type: storage.String}, {Name: "u", Type: storage.String}, {Name: "v", Type: storage.String}},
			pool: [][]any{{"a", "b"}, {"a", "\x00"}, {"\x00", "c"}, {"b", "d"}}, groupBy: []string{"s", "t", "u", "v"}, pages: []int{90, 90}},
		{name: "string keys with NULs and empty strings (packs)", keys: []storage.Column{strCol, {Name: "t", Type: storage.String}},
			pool:    [][]any{{"", "\x00", "\x00\x00", "a\x00", "\x00a"}, {"", "\x00", "a"}},
			groupBy: []string{"s", "t"}, pages: []int{100, 100}},
		// The first page packs; later pages bring a key past 8 bytes, after
		// which the packed groups keep recurring under their ids.
		{name: "string keys demoted mid-stream", keys: []storage.Column{strCol, {Name: "t", Type: storage.String}},
			pool:    [][]any{{"A", "N", "R"}, {"F", "O"}},
			later:   [][]any{{"A", "N", "R", "RETURNED"}, {"F", "O", ""}},
			groupBy: []string{"s", "t"}, pages: []int{40, 40, 40}},
	}
}

// build generates the case's input pages and returns them with their schema.
func (c aggDiffCase) build(rng *rand.Rand) (storage.Schema, []*storage.Batch) {
	cols := append(append([]storage.Column{}, c.keys...),
		storage.Column{Name: "x", Type: storage.Float64},
		storage.Column{Name: "n", Type: storage.Int64})
	schema := storage.MustSchema(cols...)
	var pages []*storage.Batch
	for i, rows := range c.pages {
		pools := c.pool
		if i > 0 && c.later != nil {
			pools = c.later
		}
		b := storage.NewBatch(schema, rows)
		for r := 0; r < rows; r++ {
			row := make([]any, 0, len(cols))
			for _, pool := range pools {
				row = append(row, pool[rng.Intn(len(pool))])
			}
			// Values whose sums round differently in different orders.
			row = append(row, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(12))), int64(rng.Intn(2000)-1000))
			if err := b.AppendRow(row...); err != nil {
				panic(err)
			}
		}
		pages = append(pages, b)
	}
	return schema, pages
}

func aggDiffSpecs() []AggSpec {
	return []AggSpec{
		{Func: Sum, Expr: Col("x"), As: "sum_x"},
		{Func: Sum, Expr: Col("n"), As: "sum_n"},
		{Func: Sum, Expr: Arith{Op: Mul, L: Col("x"), R: Arith{Op: Sub, L: ConstFloat{V: 1}, R: Col("n")}}, As: "sum_expr"},
		{Func: Sum, Expr: ConstInt{V: 3}, As: "sum_const"},
		{Func: Avg, Expr: Col("x"), As: "avg_x"},
		{Func: Avg, Expr: Arith{Op: Add, L: Col("n"), R: ConstInt{V: 1}}, As: "avg_n1"},
		{Func: Min, Expr: Col("x"), As: "min_x"},
		{Func: Max, Expr: Col("n"), As: "max_n"},
		{Func: Count, As: "cnt"},
		{Func: Count, Expr: Col("x"), As: "cnt_x"},
	}
}

// TestHashAggMatchesNaiveOracle pins the typed kernels to the row-at-a-time
// oracle: the same pages must come out, in the same order, bit for bit.
func TestHashAggMatchesNaiveOracle(t *testing.T) {
	for _, tc := range aggDiffCases() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed %d", tc.name, seed), func(t *testing.T) {
				schema, pages := tc.build(rand.New(rand.NewSource(seed)))
				var got, want []*storage.Batch
				agg, err := NewHashAggSized(schema, tc.groupBy, aggDiffSpecs(), int(seed-1)*100, collectPages(&got))
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := newNaiveAgg(schema, tc.groupBy, aggDiffSpecs(), false, collectPages(&want))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pages {
					if err := agg.Push(p); err != nil {
						t.Fatal(err)
					}
					if err := oracle.Push(p); err != nil {
						t.Fatal(err)
					}
				}
				if err := agg.Finish(); err != nil {
					t.Fatal(err)
				}
				if err := oracle.Finish(); err != nil {
					t.Fatal(err)
				}
				if err := sameBatches(got, want); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPartialMergeMatchesNaiveOracle runs the partitioned form — pages dealt
// round-robin to three partial aggregates whose states one merge combines —
// through the kernels and through the oracle: the partial states and the
// merged result must both agree page for page.
func TestPartialMergeMatchesNaiveOracle(t *testing.T) {
	const clones = 3
	for _, tc := range aggDiffCases() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed %d", tc.name, seed), func(t *testing.T) {
				schema, pages := tc.build(rand.New(rand.NewSource(seed)))
				var got, want []*storage.Batch
				merge, err := NewMergeHashAgg(schema, tc.groupBy, aggDiffSpecs(), collectPages(&got))
				if err != nil {
					t.Fatal(err)
				}
				oracleMerge, err := newNaiveAgg(schema, tc.groupBy, aggDiffSpecs(), false, collectPages(&want))
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < clones; c++ {
					var gotState, wantState []*storage.Batch
					part, err := NewPartialHashAgg(schema, tc.groupBy, aggDiffSpecs(), collectPages(&gotState))
					if err != nil {
						t.Fatal(err)
					}
					oraclePart, err := newNaiveAgg(schema, tc.groupBy, aggDiffSpecs(), true, collectPages(&wantState))
					if err != nil {
						t.Fatal(err)
					}
					for i := c; i < len(pages); i += clones {
						if err := part.Push(pages[i]); err != nil {
							t.Fatal(err)
						}
						if err := oraclePart.Push(pages[i]); err != nil {
							t.Fatal(err)
						}
					}
					if err := part.Finish(); err != nil {
						t.Fatal(err)
					}
					if err := oraclePart.Finish(); err != nil {
						t.Fatal(err)
					}
					if err := sameBatches(gotState, wantState); err != nil {
						t.Fatalf("clone %d partial state: %v", c, err)
					}
					for i := range gotState {
						if err := merge.Push(gotState[i]); err != nil {
							t.Fatal(err)
						}
						if err := oracleMerge.pushPartial(wantState[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := merge.Finish(); err != nil {
					t.Fatal(err)
				}
				if err := oracleMerge.Finish(); err != nil {
					t.Fatal(err)
				}
				if err := sameBatches(got, want); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestHashAggWarmPushAllocatesNothing pins the steady state of the kernels: a
// page whose groups have all been seen folds in without a single allocation
// — no key strings, no boxed values, no intermediate vectors.
func TestHashAggWarmPushAllocatesNothing(t *testing.T) {
	for _, tc := range aggDiffCases() {
		if len(tc.pages) == 0 {
			continue
		}
		schema, pages := tc.build(rand.New(rand.NewSource(1)))
		agg, err := NewHashAgg(schema, tc.groupBy, aggDiffSpecs(), func(*storage.Batch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		push := func() {
			for _, p := range pages {
				if err := agg.Push(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		push() // first sight of every group, scratch grown to the largest page
		if allocs := testing.AllocsPerRun(10, push); allocs != 0 {
			t.Errorf("%s: warm Push allocates %v times per pass, want 0", tc.name, allocs)
		}
	}
}
