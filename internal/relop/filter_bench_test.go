package relop

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// BenchmarkPredFilter measures page filtering with a TPC-H-Q6-shaped
// conjunction, pooled (the owner retains the selection buffer across pages,
// per the may-reuse-sel contract) vs fresh (nil sel every page). Run with
// -benchmem: the pooled arm should be allocation-free in steady state. The
// single-comparison arms time one kernel each: vec-vec-lt compares two date
// columns (Q4's l_commitdate < l_receiptdate, about 60 % kept) and le-const
// a date column with a literal (Q1's shipdate bound, about 98 % kept).
func BenchmarkPredFilter(b *testing.B) {
	const rows = 4096
	s := storage.MustSchema(
		storage.Column{Name: "a", Type: storage.Int64},
		storage.Column{Name: "b", Type: storage.Float64},
		storage.Column{Name: "d1", Type: storage.Date},
		storage.Column{Name: "d2", Type: storage.Date},
	)
	rng, dates := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(43))
	batch := storage.NewBatch(s, rows)
	for i := 0; i < rows; i++ {
		a, x, d1 := int64(rng.Intn(100)), rng.Float64()*100, int64(dates.Intn(1000))
		if err := batch.AppendRow(a, x, d1, d1+int64(dates.Intn(100))-40); err != nil {
			b.Fatal(err)
		}
	}
	pooled := func(pred Pred) func(*testing.B) {
		return func(b *testing.B) {
			buf := FillSel(nil, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel, err := pred.Filter(batch, FillSel(buf, rows))
				if err != nil {
					b.Fatal(err)
				}
				buf = sel
			}
		}
	}
	pred := And{Preds: []Pred{
		Cmp{Op: Ge, L: Col("a"), R: ConstInt{V: 10}},
		Cmp{Op: Lt, L: Col("a"), R: ConstInt{V: 80}},
		Cmp{Op: Ge, L: Col("b"), R: ConstFloat{V: 5}},
		Cmp{Op: Le, L: Col("b"), R: ConstFloat{V: 95}},
	}}
	b.Run("pooled", pooled(pred))
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pred.Filter(batch, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The set-algebra shape: Or/Not draw scratch from the pool instead of
	// building a map per page.
	orPred := Or{Preds: []Pred{
		Cmp{Op: Lt, L: Col("a"), R: ConstInt{V: 20}},
		Not{P: Cmp{Op: Lt, L: Col("b"), R: ConstFloat{V: 50}}},
	}}
	b.Run("or-not-pooled", pooled(orPred))
	b.Run("vec-vec-lt", pooled(Cmp{Op: Lt, L: Col("d1"), R: Col("d2")}))
	b.Run("le-const", pooled(Cmp{Op: Le, L: Col("d1"), R: ConstInt{V: 979}}))
}
