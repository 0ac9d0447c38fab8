package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkAppendGather gathers the selected rows of one PageRows-row page
// of an int, a float and a string column into storage reused across pages,
// as a scan gathers its output into pooled pages. The arms keep about 98 %
// of the rows (Q1's predicate) and about half of them.
func BenchmarkAppendGather(b *testing.B) {
	src := NewBatch(MustSchema(
		Column{Name: "k", Type: Int64},
		Column{Name: "v", Type: Float64},
		Column{Name: "s", Type: String},
	), PageRows)
	for r := 0; r < PageRows; r++ {
		if err := src.AppendRow(int64(r), float64(r)/2, fmt.Sprintf("s%d", r%7)); err != nil {
			b.Fatal(err)
		}
	}
	for _, pct := range []int{98, 50} {
		b.Run(fmt.Sprintf("kept-%d", pct), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var sel []int
			for r := 0; r < PageRows; r++ {
				if rng.Intn(100) < pct {
					sel = append(sel, r)
				}
			}
			dst := NewBatch(src.Schema, PageRows)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for c := range dst.Vecs {
					dst.Vecs[c] = dst.Vecs[c].Slice(0, 0)
					dst.Vecs[c].AppendGather(src.Vecs[c], sel)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sel)), "ns/row")
		})
	}
}
