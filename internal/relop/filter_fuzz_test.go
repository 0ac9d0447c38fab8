package relop

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
)

// The predicate kernels are checked against a row-at-a-time oracle: each
// row's operands are read one value at a time and compared three-way, with
// numbers as float64 and an unordered pair (a NaN on either side) counting
// as equal. That is the comparison semantics the per-operator loops spell
// out; And, Or and Not are evaluated per row by their truth tables.

var filterFuzzSchema = storage.MustSchema(
	storage.Column{Name: "i", Type: storage.Int64},
	storage.Column{Name: "j", Type: storage.Int64},
	storage.Column{Name: "d", Type: storage.Date},
	storage.Column{Name: "e", Type: storage.Date},
	storage.Column{Name: "f", Type: storage.Float64},
	storage.Column{Name: "g", Type: storage.Float64},
	storage.Column{Name: "s", Type: storage.String},
	storage.Column{Name: "u", Type: storage.String},
)

var (
	filterFuzzNumCols = []string{"i", "j", "d", "e", "f", "g"}
	filterFuzzStrCols = []string{"s", "u"}
	// Integers beyond 2^53 round when they meet a float, so neighbours
	// there compare equal through float64.
	filterFuzzInts = []int64{0, 1, -1, 2, 3, -2, 1 << 53, 1<<53 + 1, -(1 << 53), -(1 << 53) - 1, math.MaxInt64, math.MinInt64, 1 << 62, 5}
	filterFuzzFlts = []float64{0, math.Copysign(0, -1), 1, -1, 2, 0.5, -2.5, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2, 1 << 63, -(1 << 63), 3, 5}
	filterFuzzStrs = []string{"", "a", "ab", "b", "\x00", "A", "aa"}
)

// fuzzBytes hands out a fuzz input one byte at a time and falls back to its
// generator once the input runs out.
type fuzzBytes struct {
	b   []byte
	rng *rand.Rand
}

func (f *fuzzBytes) next() int {
	if len(f.b) == 0 {
		return f.rng.Intn(256)
	}
	x := f.b[0]
	f.b = f.b[1:]
	return int(x)
}

// fuzzPred draws a predicate tree: Cmp leaves of every operator and operand
// shape under And, Or and Not, at most depth levels deep. A Cmp compares
// numbers with numbers and strings with strings, since a mismatch is an
// error whose report depends on whether a conjunction got that far.
func fuzzPred(in *fuzzBytes, depth int) Pred {
	kind := in.next() % 8
	if depth == 0 {
		kind %= 5
	}
	switch kind {
	case 5, 6:
		ps := make([]Pred, in.next()%4)
		for i := range ps {
			ps[i] = fuzzPred(in, depth-1)
		}
		if kind == 5 {
			return And{Preds: ps}
		}
		return Or{Preds: ps}
	case 7:
		return Not{P: fuzzPred(in, depth-1)}
	}
	op := CmpOp(in.next() % 6)
	if in.next()%5 == 0 {
		return Cmp{Op: op, L: Col(filterFuzzStrCols[in.next()%2]), R: Col(filterFuzzStrCols[in.next()%2])}
	}
	col := func() Expr { return Col(filterFuzzNumCols[in.next()%len(filterFuzzNumCols)]) }
	lit := func() Expr {
		if in.next()%2 == 0 {
			return ConstInt{V: filterFuzzInts[in.next()%len(filterFuzzInts)]}
		}
		return ConstFloat{V: filterFuzzFlts[in.next()%len(filterFuzzFlts)]}
	}
	switch in.next() % 4 {
	case 0:
		return Cmp{Op: op, L: col(), R: lit()}
	case 1:
		return Cmp{Op: op, L: lit(), R: col()}
	case 2:
		return Cmp{Op: op, L: col(), R: col()}
	default:
		return Cmp{Op: op, L: lit(), R: lit()}
	}
}

// fuzzFilterBatch draws a page of 1 to 64 rows of filterFuzzSchema.
func fuzzFilterBatch(in *fuzzBytes) *storage.Batch {
	n := 1 + in.next()%64
	b := storage.NewBatch(filterFuzzSchema, n)
	for r := 0; r < n; r++ {
		for c, col := range filterFuzzSchema.Cols {
			v := &b.Vecs[c]
			switch col.Type {
			case storage.Int64, storage.Date:
				v.AppendInt(filterFuzzInts[in.next()%len(filterFuzzInts)])
			case storage.Float64:
				v.AppendFloat(filterFuzzFlts[in.next()%len(filterFuzzFlts)])
			case storage.String:
				v.AppendString(filterFuzzStrs[in.next()%len(filterFuzzStrs)])
			}
		}
	}
	return b
}

// oracleHolds evaluates p on one row.
func oracleHolds(t *testing.T, p Pred, b *storage.Batch, row int) bool {
	switch x := p.(type) {
	case And:
		for _, q := range x.Preds {
			if !oracleHolds(t, q, b, row) {
				return false
			}
		}
		return true
	case Or:
		for _, q := range x.Preds {
			if oracleHolds(t, q, b, row) {
				return true
			}
		}
		return false
	case Not:
		return !oracleHolds(t, x.P, b, row)
	case Cmp:
		lf, ls := oracleValue(t, x.L, b, row)
		rf, rs := oracleValue(t, x.R, b, row)
		ord := strings.Compare(ls, rs)
		if lf < rf {
			ord = -1
		} else if lf > rf {
			ord = 1
		}
		switch x.Op {
		case Eq:
			return ord == 0
		case Ne:
			return ord != 0
		case Lt:
			return ord < 0
		case Le:
			return ord <= 0
		case Gt:
			return ord > 0
		case Ge:
			return ord >= 0
		}
	}
	t.Fatalf("oracle: unexpected predicate %s", p)
	return false
}

// oracleValue reads one operand of one row: a number as float64, or a
// string (the number then 0, so the string decides the comparison).
func oracleValue(t *testing.T, e Expr, b *storage.Batch, row int) (float64, string) {
	switch x := e.(type) {
	case ConstInt:
		return float64(x.V), ""
	case ConstFloat:
		return x.V, ""
	case ColRef:
		v := b.MustCol(x.Name)
		switch v.Type {
		case storage.Int64, storage.Date:
			return float64(v.I64[row]), ""
		case storage.Float64:
			return v.F64[row], ""
		default:
			return 0, v.Str[row]
		}
	}
	t.Fatalf("oracle: unexpected operand %s", e)
	return 0, ""
}

// predNodes lists p and every predicate nested in it, parents first.
func predNodes(p Pred, out []Pred) []Pred {
	out = append(out, p)
	switch x := p.(type) {
	case And:
		for _, q := range x.Preds {
			out = predNodes(q, out)
		}
	case Or:
		for _, q := range x.Preds {
			out = predNodes(q, out)
		}
	case Not:
		out = predNodes(x.P, out)
	}
	return out
}

// FuzzFilter holds random predicate trees over pages of integer, date,
// float and string columns — NaN, ±0, ±Inf and integers past 2^53 among the
// values — to the row-at-a-time oracle. Every node of the tree is checked on
// its own, so no leaf's mistake hides behind a disjunct or conjunct that
// decides the row anyway. Each node filters every page three ways: from a
// nil selection, from a FillSel of a dirty reused buffer, and from a random
// incoming selection, whose surviving rows must be exactly the oracle's rows
// among those selected. The committed corpus (testdata/fuzz/FuzzFilter)
// puts every operator in every operand shape.
func FuzzFilter(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape, cells []byte) {
		rng := rand.New(rand.NewSource(seed))
		nodes := predNodes(fuzzPred(&fuzzBytes{b: shape, rng: rng}, 3), nil)
		in := &fuzzBytes{b: cells, rng: rng}
		var buf []int
		for page := 0; page < 3; page++ {
			b := fuzzFilterBatch(in)
			n := b.Len()
			for _, pred := range nodes {
				var want, sub, wantSub []int
				for r := 0; r < n; r++ {
					holds := oracleHolds(t, pred, b, r)
					if holds {
						want = append(want, r)
					}
					if rng.Intn(2) == 0 {
						sub = append(sub, r)
						if holds {
							wantSub = append(wantSub, r)
						}
					}
				}
				// Dirty the reused buffer past the rows FillSel rewrites.
				buf = buf[:cap(buf)]
				for i := n; i < len(buf); i++ {
					buf[i] = n + i
				}
				for _, run := range []struct {
					name string
					sel  []int
					want []int
				}{
					{"nil selection", nil, want},
					{"reused buffer", FillSel(buf, n), want},
					{"incoming selection", append([]int{}, sub...), wantSub},
				} {
					got, err := pred.Filter(b, run.sel)
					if err != nil {
						t.Fatalf("page %d, %s, %s: %v", page, run.name, pred, err)
					}
					if !equalInts(got, run.want) {
						t.Fatalf("page %d, %s, %s: got rows %v, oracle %v", page, run.name, pred, got, run.want)
					}
					if run.name == "reused buffer" {
						buf = got
					}
				}
			}
		}
	})
}
