// Package repro's benchmarks regenerate the paper's figures as testing.B
// targets, each reporting the figure's headline quantity as a custom metric
// (speedup, error percentage, policy advantage), plus the real engine's Q6
// shared-vs-unshared run and the Section 3.1 estimation pipeline. End-to-end
// performance is measured by bench/ (see BENCHMARK.json), not here.
//
// Run with: go test -run='^$' -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// benchCfg keeps simulator benches fast while preserving curve shapes.
func benchCfg(n int) sim.Config {
	return sim.Config{Processors: n, Horizon: 1500}
}

// BenchmarkSection44Example evaluates the paper's worked Q6 closed forms
// across the full (m, n) grid — the sanity anchor for everything else.
func BenchmarkSection44Example(b *testing.B) {
	q := core.Q6Paper()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, n := range []float64{1, 2, 8, 32} {
			env := core.NewEnv(n)
			for m := 1; m <= 48; m++ {
				sink += core.Z(q, m, env)
			}
		}
	}
	_ = sink
	b.ReportMetric(core.Z(q, 48, core.NewEnv(1)), "Z(48,1)")
	b.ReportMetric(core.Z(q, 48, core.NewEnv(32)), "Z(48,32)")
}

// BenchmarkFigure1 regenerates Figure 1: measured Q6 sharing speedup per
// processor count (one sub-benchmark per curve, speedup at 48 clients
// reported as a metric).
func BenchmarkFigure1(b *testing.B) {
	pl := tpch.Plan(tpch.Q6)
	for _, n := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("%dcpu", n), func(b *testing.B) {
			var z float64
			for i := 0; i < b.N; i++ {
				var err error
				z, err = sim.Speedup(pl, tpch.PivotName, 48, benchCfg(n))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(z, "speedup@48")
		})
	}
}

// BenchmarkFigure2Scan regenerates Figure 2 (left): scan-heavy Q1/Q6.
func BenchmarkFigure2Scan(b *testing.B) {
	benchFigure2(b, true)
}

// BenchmarkFigure2Join regenerates Figure 2 (right): join-heavy Q4/Q13.
func BenchmarkFigure2Join(b *testing.B) {
	benchFigure2(b, false)
}

func benchFigure2(b *testing.B, scanHeavy bool) {
	for _, qid := range tpch.AllQueries {
		if qid.ScanHeavy() != scanHeavy {
			continue
		}
		pl := tpch.Plan(qid)
		for _, n := range []int{1, 32} {
			b.Run(fmt.Sprintf("%s/%dcpu", qid, n), func(b *testing.B) {
				var z float64
				for i := 0; i < b.N; i++ {
					var err error
					z, err = sim.Speedup(pl, tpch.PivotName, 48, benchCfg(n))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(z, "speedup@48")
			})
		}
	}
}

// BenchmarkFigure4 regenerates the three model sensitivity sweeps.
func BenchmarkFigure4(b *testing.B) {
	b.Run("left-processors", func(b *testing.B) {
		var out []core.Series
		for i := 0; i < b.N; i++ {
			out = core.SweepProcessors(core.Fig3Query(), []int{1, 4, 8, 12, 16, 24, 32}, 40)
		}
		last := out[len(out)-1].Points
		b.ReportMetric(last[len(last)-1].Value, "Z(40,32cpu)")
	})
	b.Run("center-pivot-cost", func(b *testing.B) {
		var out []core.Series
		for i := 0; i < b.N; i++ {
			out = core.SweepPivotCost(core.Fig3Query(), []float64{0, 0.25, 0.5, 1, 2, 4}, core.NewEnv(32), 40)
		}
		first := out[0].Points
		b.ReportMetric(first[len(first)-1].Value, "Z(40,s=0)")
	})
	b.Run("right-work-eliminated", func(b *testing.B) {
		var out []core.Series
		for i := 0; i < b.N; i++ {
			out = core.SweepWorkEliminated(core.NewEnv(8), 40)
		}
		top := out[0].Points // 5/5 (98%) series
		b.ReportMetric(top[len(top)-1].Value, "Z(40,98%)")
	})
}

// BenchmarkFigure5 regenerates the model validation: predicted vs simulated
// speedups for all four queries, reporting the max/avg relative error the
// paper's caption quotes (scan-heavy: max 22% avg 5.7%; join-heavy: max 30%
// avg 5.9%).
func BenchmarkFigure5(b *testing.B) {
	for _, scanHeavy := range []bool{true, false} {
		name := "scan-heavy"
		if !scanHeavy {
			name = "join-heavy"
		}
		b.Run(name, func(b *testing.B) {
			var st series.ErrorStats
			for i := 0; i < b.N; i++ {
				var preds, meas []float64
				for _, qid := range tpch.AllQueries {
					if qid.ScanHeavy() != scanHeavy {
						continue
					}
					pl := tpch.Plan(qid)
					model := tpch.Model(qid)
					for _, n := range []int{1, 2, 8, 32} {
						env := core.NewEnv(float64(n))
						for _, m := range []int{2, 8, 24, 48} {
							z, err := sim.Speedup(pl, tpch.PivotName, m, benchCfg(n))
							if err != nil {
								b.Fatal(err)
							}
							preds = append(preds, core.Z(model, m, env))
							meas = append(meas, z)
						}
					}
				}
				st = series.Compare(preds, meas)
			}
			b.ReportMetric(st.Max*100, "maxerr%")
			b.ReportMetric(st.Avg*100, "avgerr%")
		})
	}
}

// BenchmarkFigure6 regenerates the policy comparison on 2 and 32
// processors, reporting the model policy's average advantage.
func BenchmarkFigure6(b *testing.B) {
	q1 := tpch.Model(tpch.Q1)
	q4 := tpch.Model(tpch.Q4)
	for _, n := range []float64{2, 32} {
		b.Run(fmt.Sprintf("%.0fcpu", n), func(b *testing.B) {
			var pts []workload.Figure6Point
			for i := 0; i < b.N; i++ {
				pts = workload.Figure6Series(q1, q4, 20, n, 4)
			}
			var sm, sn, sa float64
			for _, pt := range pts {
				sm += pt.Model
				sn += pt.Never
				sa += pt.Always
			}
			b.ReportMetric(sm/sn, "model/never")
			b.ReportMetric(sm/sa, "model/always")
		})
	}
}

// BenchmarkEngineQ6 measures real wall-clock execution of Q6 on the staged
// engine, shared vs unshared, 8 clients on 2 emulated processors (the
// regime where sharing wins even physically).
func BenchmarkEngineQ6(b *testing.B) {
	db := tpch.MustGenerate(tpch.Config{ScaleFactor: 0.005, Seed: 42})
	spec := tpch.MustEngineSpec(tpch.Q6, db, 0)
	for _, mode := range []struct {
		name string
		pol  engine.SharePolicy
	}{{"shared", policy.Always{}}, {"unshared", nil}} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := engine.New(engine.Options{Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				handles := make([]*engine.Handle, 8)
				for j := range handles {
					h, err := e.Submit(spec, mode.pol)
					if err != nil {
						b.Fatal(err)
					}
					handles[j] = h
				}
				for _, h := range handles {
					if _, err := h.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkProfileEstimation measures the Section 3.1 parameter-estimation
// pipeline end to end and reports the recovered pivot coefficients.
func BenchmarkProfileEstimation(b *testing.B) {
	pl := tpch.Plan(tpch.Q6)
	var q core.Query
	for i := 0; i < b.N; i++ {
		var err error
		q, err = profile.EstimateSim(pl, tpch.PivotName, []int{1, 2, 4}, sim.Config{Processors: 4, Horizon: 2000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(q.PivotW, "est_w")
	b.ReportMetric(q.PivotS, "est_s")
}
