package relop

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// Microbenchmarks of the per-row kernels, shaped like the TPC-H plans the
// engine runs and paged like the engine pages them (one storage.PageRows
// page per Push). Run with -benchmem: allocs/op is per pass over all pages.

const kernelBenchRows = 60000 // about lineitem at the benchmark's scale factor

// benchPages cuts rows generated by gen into storage.PageRows pages of schema.
func benchPages(b *testing.B, schema storage.Schema, rows int, gen func(r int) []any) []*storage.Batch {
	b.Helper()
	var pages []*storage.Batch
	for r := 0; r < rows; r++ {
		if r%storage.PageRows == 0 {
			pages = append(pages, storage.NewBatch(schema, storage.PageRows))
		}
		if err := pages[len(pages)-1].AppendRow(gen(r)...); err != nil {
			b.Fatal(err)
		}
	}
	return pages
}

func q1Expr() (discPrice, charge Expr) {
	discPrice = Arith{Op: Mul, L: Col("extprice"), R: Arith{Op: Sub, L: ConstFloat{V: 1}, R: Col("disc")}}
	charge = Arith{Op: Mul, L: discPrice, R: Arith{Op: Add, L: ConstFloat{V: 1}, R: Col("tax")}}
	return discPrice, charge
}

// q1Pages generates Q1's scan output with the given l_returnflag values.
func q1Pages(b *testing.B, flags ...string) (storage.Schema, []*storage.Batch) {
	schema := storage.MustSchema(
		storage.Column{Name: "flag", Type: storage.String},
		storage.Column{Name: "status", Type: storage.String},
		storage.Column{Name: "qty", Type: storage.Float64},
		storage.Column{Name: "extprice", Type: storage.Float64},
		storage.Column{Name: "disc", Type: storage.Float64},
		storage.Column{Name: "tax", Type: storage.Float64},
	)
	rng := rand.New(rand.NewSource(1))
	statuses := []string{"F", "O"}
	return schema, benchPages(b, schema, kernelBenchRows, func(int) []any {
		return []any{flags[rng.Intn(len(flags))], statuses[rng.Intn(2)], float64(1 + rng.Intn(50)), 900 + 1e5*rng.Float64(), float64(rng.Intn(11)) / 100, float64(rng.Intn(9)) / 100}
	})
}

func BenchmarkHashAggPush(b *testing.B) {
	discPrice, charge := q1Expr()
	q1Schema, q1 := q1Pages(b, "A", "N", "R")
	// Flags past the 8 bytes a packed key holds: the encoded-key map.
	_, q1Long := q1Pages(b, "ACCEPTED", "NONE", "RETURNED")
	q1Specs := []AggSpec{
		{Func: Sum, Expr: Col("qty"), As: "sum_qty"},
		{Func: Sum, Expr: Col("extprice"), As: "sum_base_price"},
		{Func: Sum, Expr: discPrice, As: "sum_disc_price"},
		{Func: Sum, Expr: charge, As: "sum_charge"},
		{Func: Avg, Expr: Col("qty"), As: "avg_qty"},
		{Func: Avg, Expr: Col("extprice"), As: "avg_price"},
		{Func: Avg, Expr: Col("disc"), As: "avg_disc"},
		{Func: Count, As: "count_order"},
	}
	custSchema := storage.MustSchema(
		storage.Column{Name: "custkey", Type: storage.Int64},
		storage.Column{Name: "one", Type: storage.Int64},
	)
	rng := rand.New(rand.NewSource(2))
	cust := benchPages(b, custSchema, 15000, func(int) []any { return []any{int64(rng.Intn(1500)), int64(1)} })
	for _, arm := range []struct {
		name    string
		schema  storage.Schema
		pages   []*storage.Batch
		groupBy []string
		specs   []AggSpec
	}{
		{"q1-two-string-keys", q1Schema, q1, []string{"flag", "status"}, q1Specs},
		{"q1-rollup-one-string-key", q1Schema, q1, []string{"flag"}, q1Specs},
		{"string-keys-past-8-bytes", q1Schema, q1Long, []string{"flag", "status"}, q1Specs},
		{"q13-1500-int-groups", custSchema, cust, []string{"custkey"}, []AggSpec{{Func: Sum, Expr: Col("one"), As: "c_count"}}},
		{"q6-global", q1Schema, q1, nil, []AggSpec{{Func: Sum, Expr: Arith{Op: Mul, L: Col("extprice"), R: Col("disc")}, As: "revenue"}}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			rows := 0
			for _, p := range arm.pages {
				rows += p.Len()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agg, err := NewHashAgg(arm.schema, arm.groupBy, arm.specs, func(*storage.Batch) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range arm.pages {
					if err := agg.Push(p); err != nil {
						b.Fatal(err)
					}
				}
				if err := agg.Finish(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkHashAggFinish times Finish alone, where the groups are put in
// emission order and emitted: Q13's inner count with about 1 500 integer
// custkeys, and Q1's two one-byte string keys. Each iteration first folds in
// one row per group, off the clock.
func BenchmarkHashAggFinish(b *testing.B) {
	custSchema := storage.MustSchema(
		storage.Column{Name: "custkey", Type: storage.Int64},
		storage.Column{Name: "one", Type: storage.Int64},
	)
	rng := rand.New(rand.NewSource(3))
	custkeys := rng.Perm(1500)
	cust := benchPages(b, custSchema, len(custkeys), func(r int) []any { return []any{int64(1 + custkeys[r]), int64(1)} })
	q1Schema := storage.MustSchema(
		storage.Column{Name: "flag", Type: storage.String},
		storage.Column{Name: "status", Type: storage.String},
		storage.Column{Name: "qty", Type: storage.Float64},
	)
	q1Groups := [][2]string{{"R", "F"}, {"N", "O"}, {"A", "F"}, {"N", "F"}}
	q1 := benchPages(b, q1Schema, len(q1Groups), func(r int) []any { return []any{q1Groups[r][0], q1Groups[r][1], 1.0} })
	for _, arm := range []struct {
		name    string
		schema  storage.Schema
		pages   []*storage.Batch
		groupBy []string
		specs   []AggSpec
	}{
		{"q13-inner", custSchema, cust, []string{"custkey"}, []AggSpec{{Func: Sum, Expr: Col("one"), As: "c_count"}}},
		{"q1", q1Schema, q1, []string{"flag", "status"}, []AggSpec{{Func: Sum, Expr: Col("qty"), As: "sum_qty"}, {Func: Count, As: "count_order"}}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				agg, err := NewHashAgg(arm.schema, arm.groupBy, arm.specs, func(*storage.Batch) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range arm.pages {
					if err := agg.Push(p); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := agg.Finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArithEval evaluates Q1's charge, extprice*(1-disc)*(1+tax), the
// way an operator does: intermediates in scratch that is reused across pages.
func BenchmarkArithEval(b *testing.B) {
	_, charge := q1Expr()
	_, pages := q1Pages(b, "A", "N", "R")
	var sc exprScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pages {
			sc.reset()
			if _, err := operandOf(charge, p, &sc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kernelBenchRows), "ns/row")
}

// q4JoinPages is Q4's join: ~38k late lineitems' order keys (about 2.8 per
// order) on the build side, 15k orders on the probe side.
func q4JoinPages(b *testing.B) (build, probe storage.Schema, buildPages, probePages []*storage.Batch) {
	build = storage.MustSchema(storage.Column{Name: "l_orderkey", Type: storage.Int64})
	probe = storage.MustSchema(
		storage.Column{Name: "o_orderkey", Type: storage.Int64},
		storage.Column{Name: "o_orderpriority", Type: storage.String},
	)
	rng := rand.New(rand.NewSource(3))
	prios := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	buildPages = benchPages(b, build, 38000, func(int) []any { return []any{int64(rng.Intn(13500)) * 4} })
	probePages = benchPages(b, probe, 15000, func(r int) []any { return []any{int64(r) * 4, prios[rng.Intn(5)]} })
	return build, probe, buildPages, probePages
}

// benchJoinBuild builds the table a join of the given kind reads into
// freshly allocated storage: the cost of a cold build, whatever the store
// pool holds.
func benchJoinBuild(b *testing.B, kind JoinKind, schema storage.Schema, pages []*storage.Batch, hint int) *HashTable {
	jb, err := NewJoinBuildFor(kind, schema, "l_orderkey", hint)
	if err != nil {
		b.Fatal(err)
	}
	jb.FreshStorage()
	for _, p := range pages {
		if err := jb.Push(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := jb.Finish(); err != nil {
		b.Fatal(err)
	}
	return jb.Table()
}

// BenchmarkJoinBuild builds a row-carrying table over Q4's build side cold,
// without and with the row hint; keyset builds the key-set table Q4's semi
// join seals, cold. pooled is a private inner HashJoin's build-then-finish
// cycle, warm: its Finish recycles the store the next iteration's build
// takes. Those arms draw their keys at random; clustered runs the warm cycle
// over keys that arrive sorted in runs of 1–7 rows, as lineitem reaches Q4's
// build after its filter, so each run costs one key lookup.
func BenchmarkJoinBuild(b *testing.B) {
	schema, probe, pages, _ := q4JoinPages(b)
	for _, arm := range []struct {
		name string
		kind JoinKind
		hint int
	}{{"unsized", Inner, 0}, {"sized", Inner, 38000}, {"keyset", Semi, 38000}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchJoinBuild(b, arm.kind, schema, pages, arm.hint)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*38000), "ns/row")
		})
	}
	pooled := func(pages []*storage.Batch) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hj, err := NewHashJoinSized(Inner, schema, "l_orderkey", probe, "o_orderkey", 38000, func(*storage.Batch) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pages {
					if err := hj.PushBuild(p); err != nil {
						b.Fatal(err)
					}
				}
				if err := hj.FinishBuild(); err != nil {
					b.Fatal(err)
				}
				if err := hj.Finish(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*38000), "ns/row")
		}
	}
	b.Run("pooled", pooled(pages))
	rng := rand.New(rand.NewSource(4))
	order, left := int64(0), 0
	clustered := benchPages(b, schema, 38000, func(int) []any {
		if left == 0 {
			order, left = order+1, 1+rng.Intn(7)
		}
		left--
		return []any{order * 4}
	})
	b.Run("clustered", pooled(clustered))
}

// BenchmarkJoinProbe probes Q4's orders against Q4's build side, each kind
// against the table form it reads: Semi a key-set table, Inner the
// row-carrying one.
func BenchmarkJoinProbe(b *testing.B) {
	build, probe, buildPages, probePages := q4JoinPages(b)
	for _, kind := range []JoinKind{Semi, Inner} {
		tbl := benchJoinBuild(b, kind, build, buildPages, 0)
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr, err := NewHashJoinProbe(kind, build, "l_orderkey", probe, "o_orderkey", func(*storage.Batch) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				if err := pr.AttachTable(tbl); err != nil {
					b.Fatal(err)
				}
				for _, p := range probePages {
					if err := pr.Push(p); err != nil {
						b.Fatal(err)
					}
				}
				if err := pr.Finish(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*15000), "ns/row")
		})
	}
}
