package relop

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// fuzzAggMenu is the aggregates FuzzHashAgg picks from, one spec byte each.
// Sum and Avg over the same input share one sum, every Count and Avg one
// row count; "3" is a column whose name renders like the literal 3.
func fuzzAggMenu() []AggSpec {
	arith := Arith{Op: Mul, L: Col("x"), R: Arith{Op: Sub, L: ConstFloat{V: 1}, R: Col("n")}}
	return []AggSpec{
		{Func: Sum, Expr: Col("x")},
		{Func: Avg, Expr: Col("x")},
		{Func: Sum, Expr: Col("n")},
		{Func: Avg, Expr: Col("n")},
		{Func: Count},
		{Func: Count, Expr: Col("x")},
		{Func: Min, Expr: Col("x")},
		{Func: Max, Expr: Col("n")},
		{Func: Sum, Expr: arith},
		{Func: Avg, Expr: arith},
		{Func: Sum, Expr: Col("3")},
		{Func: Sum, Expr: ConstInt{V: 3}},
		{Func: Avg, Expr: ConstFloat{V: 3}},
	}
}

// fuzzKeyBytes is the text key values are cut from. Its runs make cuts that
// differ only in their last byte: "aaaaaaaa" and "aaaaaaab" at offsets 0 and
// 3, eight NULs and seven NULs then \x01 at offsets 12 and 13.
const fuzzKeyBytes = "aaaaaaaaaab\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01cdefghijklmnopqrs"

// fuzzIntKey is the integer key value a cell byte stands for: bit 0 is the
// sign, bits 1–5 the decimal digit count (1–19, mod 19), and bits 6–7 pick
// the smallest value of that many digits, the largest (MaxInt64 and MinInt64
// at 19), the smallest plus one, or five times the smallest minus five (0 at
// one digit). So cells reach every digit count, zero, and the 15/16-digit
// edge past which a column leaves the exact integer sort keys.
func fuzzIntKey(c byte) int64 {
	digits := 1 + int(c>>1&31)%19
	lo := int64(1)
	for range digits - 1 {
		lo *= 10
	}
	var v int64
	switch c >> 6 {
	case 0:
		v = lo
	case 1:
		v = math.MaxInt64
		if digits < 19 {
			v = lo*10 - 1
		}
	case 2:
		v = lo + 1
	default:
		v = 5*lo - 5
	}
	if c&1 != 0 {
		if v == math.MaxInt64 {
			return math.MinInt64
		}
		return -v
	}
	return v
}

// fuzzAggInput decodes one FuzzHashAgg input. keys/4%3 picks the key shape:
// 0 is keys%4+1 string key columns, 1 one Int64 key column, 2 one Date key
// column. Then one aggregate per spec byte (duplicates allowed); one page
// per page byte, of that many rows; and one key cell per cell byte, reused
// cyclically. A string cell's value is cell%10 bytes of fuzzKeyBytes from
// offset cell/10 — lengths 0–9, straddling the 8 bytes the packed group
// table holds; an integer cell's is fuzzIntKey(cell). x, n and "3" are drawn
// from seed.
func fuzzAggInput(seed int64, keys uint8, specBytes, pageBytes, cells []byte) (storage.Schema, []string, []AggSpec, []*storage.Batch) {
	var cols []storage.Column
	var groupBy []string
	switch keys / 4 % 3 {
	case 0:
		for c := 0; c < int(keys%4)+1; c++ {
			name := fmt.Sprintf("k%d", c)
			cols = append(cols, storage.Column{Name: name, Type: storage.String})
			groupBy = append(groupBy, name)
		}
	case 1:
		cols, groupBy = []storage.Column{{Name: "k0", Type: storage.Int64}}, []string{"k0"}
	default:
		cols, groupBy = []storage.Column{{Name: "k0", Type: storage.Date}}, []string{"k0"}
	}
	keyCols := len(cols)
	cols = append(cols,
		storage.Column{Name: "x", Type: storage.Float64},
		storage.Column{Name: "n", Type: storage.Int64},
		storage.Column{Name: "3", Type: storage.Int64})
	schema := storage.MustSchema(cols...)

	menu := fuzzAggMenu()
	var specs []AggSpec
	for i, s := range specBytes[:min(len(specBytes), 16)] {
		sp := menu[int(s)%len(menu)]
		sp.As = fmt.Sprintf("a%d", i)
		specs = append(specs, sp)
	}

	rng := rand.New(rand.NewSource(seed))
	var pages []*storage.Batch
	cell := 0
	for _, rows := range pageBytes[:min(len(pageBytes), 12)] {
		b := storage.NewBatch(schema, int(rows))
		for r := 0; r < int(rows); r++ {
			row := make([]any, 0, len(cols))
			for _, kc := range cols[:keyCols] {
				var c byte
				if len(cells) > 0 {
					c = cells[cell%len(cells)]
				}
				cell++
				if kc.Type == storage.String {
					row = append(row, fuzzKeyBytes[c/10:c/10+c%10])
				} else {
					row = append(row, fuzzIntKey(c))
				}
			}
			row = append(row, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(12))), int64(rng.Intn(2000)-1000), int64(rng.Intn(7)))
			if err := b.AppendRow(row...); err != nil {
				panic(err)
			}
		}
		pages = append(pages, b)
	}
	return schema, groupBy, specs, pages
}

// FuzzHashAgg holds HashAgg, and three partial aggregates combined by one
// MergeHashAgg, to the row-at-a-time oracle page for page and bit for bit.
// The committed corpus (testdata/fuzz/FuzzHashAgg) includes keys that pack
// into one word, keys that never do, a stream that leaves the packed table
// after packed groups exist, which then recur, and integer and date keys
// across signs, digit counts and the 15/16-digit edge of the exact integer
// sort keys.
func FuzzHashAgg(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, keys uint8, specBytes, pageBytes, cells []byte) {
		schema, groupBy, specs, pages := fuzzAggInput(seed, keys, specBytes, pageBytes, cells)

		var got, want []*storage.Batch
		agg, err := NewHashAgg(schema, groupBy, specs, collectPages(&got))
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := newNaiveAgg(schema, groupBy, specs, false, collectPages(&want))
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
			t.Fatalf("single pass: %v", err)
		}

		const clones = 3
		got, want = nil, nil
		merge, err := NewMergeHashAgg(schema, groupBy, specs, collectPages(&got))
		if err != nil {
			t.Fatal(err)
		}
		oracleMerge, err := newNaiveAgg(schema, groupBy, specs, false, collectPages(&want))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < clones; c++ {
			var gotState, wantState []*storage.Batch
			part, err := NewPartialHashAgg(schema, groupBy, specs, collectPages(&gotState))
			if err != nil {
				t.Fatal(err)
			}
			oraclePart, err := newNaiveAgg(schema, groupBy, specs, true, collectPages(&wantState))
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
			t.Fatalf("partial+merge: %v", err)
		}
	})
}
