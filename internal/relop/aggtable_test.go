package relop

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestExprEqual(t *testing.T) {
	x := Arith{Op: Mul, L: Col("x"), R: Arith{Op: Sub, L: ConstFloat{V: 1}, R: Col("n")}}
	for _, tc := range []struct {
		name string
		a, b Expr
		want bool
	}{
		{"same column", Col("x"), Col("x"), true},
		{"other column", Col("x"), Col("n"), false},
		{"column vs literal rendering alike", Col("3"), ConstInt{V: 3}, false},
		{"int vs float literal", ConstInt{V: 3}, ConstFloat{V: 3}, false},
		{"same float literal", ConstFloat{V: 0.5}, ConstFloat{V: 0.5}, true},
		{"signed zeros", ConstFloat{V: 0}, ConstFloat{V: math.Copysign(0, -1)}, false},
		{"same NaN", ConstFloat{V: math.NaN()}, ConstFloat{V: math.NaN()}, true},
		{"same tree", x, Arith{Op: Mul, L: Col("x"), R: Arith{Op: Sub, L: ConstFloat{V: 1}, R: Col("n")}}, true},
		{"other operator", x, Arith{Op: Div, L: Col("x"), R: x.R}, false},
		{"swapped operands", x, Arith{Op: Mul, L: x.R, R: Col("x")}, false},
		{"nil", nil, nil, false},
		{"unknown kind", colPlusOne{}, colPlusOne{}, false},
	} {
		if got := exprEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: exprEqual(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { exprEqual(x, x) }); allocs != 0 {
		t.Errorf("exprEqual allocates %v times, want 0", allocs)
	}
}

// colPlusOne is an Expr outside the standard kinds.
type colPlusOne struct{}

func (colPlusOne) Type(storage.Schema) (storage.Type, error) { return storage.Int64, nil }
func (colPlusOne) Eval(b *storage.Batch) (storage.Vector, error) {
	return Arith{Op: Add, L: Col("n"), R: ConstInt{V: 1}}.Eval(b)
}
func (colPlusOne) String() string { return "(n + 1)" }

// TestAggTableSharesAccumulators pins who owns what for Q1's aggregate list
// plus duplicates: each distinct Sum/Avg input is summed once, and every
// Count/Avg reads the first counter.
func TestAggTableSharesAccumulators(t *testing.T) {
	discPrice, charge := q1Expr()
	specs := []AggSpec{
		{Func: Sum, Expr: Col("qty")},
		{Func: Sum, Expr: Col("extprice")},
		{Func: Sum, Expr: discPrice},
		{Func: Sum, Expr: charge},
		{Func: Avg, Expr: Col("qty")},
		{Func: Avg, Expr: Col("extprice")},
		{Func: Avg, Expr: Col("disc")},
		{Func: Count},
		{Func: Min, Expr: Col("qty")},
		{Func: Avg, Expr: Arith{Op: Mul, L: Col("extprice"), R: Arith{Op: Sub, L: ConstFloat{V: 1}, R: Col("disc")}}},
		{Func: Count, Expr: Col("qty")},
		{Func: Sum, Expr: colPlusOne{}},
		{Func: Sum, Expr: colPlusOne{}},
	}
	tbl := newAggTable(nil, nil, specs, 0)
	var sumOf, countOf []int
	for i, a := range tbl.accs {
		sumOf = append(sumOf, a.sumOf)
		countOf = append(countOf, a.countOf)
		if owner := a.sumOf == i && (specs[i].Func == Sum || specs[i].Func == Avg); owner != (a.sums != nil) {
			t.Errorf("spec %d: owns its sums = %v, but keeps them = %v", i, owner, a.sums != nil)
		}
		if owner := a.countOf == i && (specs[i].Func == Count || specs[i].Func == Avg); owner != (a.counts != nil) {
			t.Errorf("spec %d: owns its counts = %v, but keeps them = %v", i, owner, a.counts != nil)
		}
	}
	if want := []int{0, 1, 2, 3, 0, 1, 6, 7, 8, 2, 10, 11, 12}; !slices.Equal(sumOf, want) {
		t.Errorf("sum owners %v, want %v", sumOf, want)
	}
	if want := []int{0, 1, 2, 3, 4, 4, 4, 4, 8, 4, 4, 11, 12}; !slices.Equal(countOf, want) {
		t.Errorf("count owners %v, want %v", countOf, want)
	}
}

// TestAggTableDemotesOnce drives the packed path into a key past 8 bytes
// mid-page: the groups seen before keep their ids, and the table stays on
// the encoded map afterwards.
func TestAggTableDemotesOnce(t *testing.T) {
	schema := storage.MustSchema(storage.Column{Name: "s", Type: storage.String}, storage.Column{Name: "t", Type: storage.String})
	page := func(rows ...[2]string) *storage.Batch {
		b := storage.NewBatch(schema, len(rows))
		for _, r := range rows {
			if err := b.AppendRow(r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	tbl := newAggTable([]string{"s", "t"}, schema.Cols, nil, 0)
	ids, err := tbl.resolve(page([2]string{"A", "F"}, [2]string{"", ""}, [2]string{"A", "F"}, [2]string{"ab", "defg"}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.packed == nil || tbl.byKey != nil {
		t.Fatal("keys of at most 8 packed bytes left the packed table")
	}
	if want := []int32{0, 1, 0, 2}; !slices.Equal(ids, want) {
		t.Fatalf("packed ids %v, want %v", ids, want)
	}
	ids, err = tbl.resolve(page([2]string{"", ""}, [2]string{"abc", "defgh"}, [2]string{"A", "F"}, [2]string{"ab", "defg"}, [2]string{"abc", "defgh"}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.packed != nil || len(tbl.byKey) != 4 {
		t.Fatalf("after a 10-byte key: packed %v, %d encoded keys, want nil and 4", tbl.packed != nil, len(tbl.byKey))
	}
	if want := []int32{1, 3, 0, 2, 3}; !slices.Equal(ids, want) {
		t.Fatalf("ids across the demotion %v, want %v", ids, want)
	}
	ids, err = tbl.resolve(page([2]string{"A", "F"}, [2]string{"x", "y"}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 4}; tbl.packed != nil || !slices.Equal(ids, want) {
		t.Fatalf("after demotion: ids %v (want %v), packed %v", ids, want, tbl.packed != nil)
	}
}

// TestHashAggChecksCountExpr: Push never evaluates a Count's expression, so
// the constructor reports one that does not type-check.
func TestHashAggChecksCountExpr(t *testing.T) {
	in := storage.MustSchema(storage.Column{Name: "x", Type: storage.Float64})
	if _, err := NewHashAgg(in, nil, []AggSpec{{Func: Count, Expr: Col("missing"), As: "c"}}, nil); err == nil {
		t.Fatal("Count over a missing column accepted")
	}
	if _, err := NewHashAgg(in, nil, []AggSpec{{Func: Count, Expr: Col("x"), As: "c"}}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntSortKeyOrdersAsRendering holds intSortKey to the order of the
// rendering i<v>| for every value of at most maxExactDigits digits, and to
// its digit count for every value.
func TestIntSortKeyOrdersAsRendering(t *testing.T) {
	vals := []int64{0, 1, -1, 9, -9, 10, -10, 99, 100, 101, 5, 50, 500,
		99_999_999_999_999, 100_000_000_000_000, 999_999_999_999_999, -999_999_999_999_999,
		1_000_000_000_000_000, -1_000_000_000_000_000, 1_000_000_000_000_001, 9_999_999_999_999_999,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	rng := rand.New(rand.NewSource(1))
	for range 400 {
		v := rng.Int63() >> rng.Intn(63)
		if rng.Intn(2) == 0 {
			v = -v
		}
		vals = append(vals, v)
	}
	render := func(v int64) []byte { return append(strconv.AppendInt([]byte("i"), v, 10), '|') }
	for _, a := range vals {
		ka, da := intSortKey(a)
		if want := len(strings.TrimPrefix(strconv.FormatInt(a, 10), "-")); da != want {
			t.Fatalf("intSortKey(%d) counts %d digits, want %d", a, da, want)
		}
		if da > maxExactDigits {
			continue
		}
		for _, b := range vals {
			if kb, db := intSortKey(b); db <= maxExactDigits {
				if got, want := cmp.Compare(ka, kb), bytes.Compare(render(a), render(b)); got != want {
					t.Fatalf("%d vs %d: keys %#x, %#x compare %d, renderings %d", a, b, ka, kb, got, want)
				}
			}
		}
	}
}
