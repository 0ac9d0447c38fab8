// Command figures regenerates every figure of "To Share or Not To
// Share?" (VLDB 2007): the measured sharing speedups (Figures 1 and 2, via
// the CMP simulator), the model sensitivity sweeps (Figure 4), the model
// validation against measurement (Figure 5, with the max/average error
// statistics the paper reports), and the policy comparison (Figure 6).
//
// Usage:
//
//	figures [-fig all|1|2|4|5|6|example] [-csv] [-clients N] [-horizon T]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/tpch"
	"repro/internal/workload"
)

var (
	figFlag     = flag.String("fig", "all", "figure to regenerate: all, 1, 2, 4, 5, 6, example")
	csvFlag     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	clientsFlag = flag.Int("clients", 48, "maximum client count for sweeps")
	horizonFlag = flag.Float64("horizon", 5000, "simulator virtual-time horizon")
)

// sweepM is the client-count grid used for measured sweeps.
func sweepM(maxM int) []int {
	out := []int{1, 2, 4, 8, 12, 16, 24, 32, 40, 48}
	var trimmed []int
	for _, m := range out {
		if m <= maxM {
			trimmed = append(trimmed, m)
		}
	}
	return trimmed
}

var cpuGrid = []int{1, 2, 8, 32}

func main() {
	flag.Parse()
	if err := run(*figFlag); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(fig string) error {
	switch fig {
	case "all":
		for _, f := range []string{"example", "1", "2", "4", "5", "6"} {
			if err := run(f); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case "example":
		return runExample()
	case "1":
		return runFigure1()
	case "2":
		return runFigure2()
	case "4":
		return runFigure4()
	case "5":
		return runFigure5()
	case "6":
		return runFigure6()
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

func emit(t *series.Table) {
	if *csvFlag {
		fmt.Printf("# %s\n%s", t.Title, t.CSV())
		return
	}
	fmt.Print(t.ASCII())
}

// runExample prints the Section 4.4 worked example for Q6.
func runExample() error {
	q := core.Q6Paper()
	fmt.Println("# Section 4.4 worked example: TPC-H Q6 (w=9.66 s=10.34 scan, p=0.97 agg)")
	fmt.Printf("p_max = %.4g, u' = %.4g, u = %.4g processors for peak throughput\n",
		q.PMax(), q.UPrime(), q.U())
	t := series.NewTable("x(m,n) and Z(m,n)", "m")
	for _, n := range cpuGrid {
		env := core.NewEnv(float64(n))
		for _, m := range sweepM(*clientsFlag) {
			t.Set(float64(m), fmt.Sprintf("x_unshared %d cpu", n), core.UnsharedX(q, m, env))
			t.Set(float64(m), fmt.Sprintf("x_shared %d cpu", n), core.SharedX(q, m, env))
			t.Set(float64(m), fmt.Sprintf("Z %d cpu", n), core.Z(q, m, env))
		}
	}
	emit(t)
	return nil
}

// runFigure1 reproduces Figure 1: measured sharing speedup of Q6 vs client
// count for 1/2/8/32 processors.
func runFigure1() error {
	t := series.NewTable("Figure 1: Q6 sharing speedup (simulated measurement)", "clients")
	pl := tpch.Plan(tpch.Q6)
	for _, n := range cpuGrid {
		for _, m := range sweepM(*clientsFlag) {
			z, err := sim.Speedup(pl, tpch.PivotName, m, simCfg(n))
			if err != nil {
				return err
			}
			t.Set(float64(m), fmt.Sprintf("%d cpu q6", n), z)
		}
	}
	emit(t)
	return nil
}

// runFigure2 reproduces Figure 2: scan-heavy (left) and join-heavy (right)
// measured speedups.
func runFigure2() error {
	left := series.NewTable("Figure 2 (left): scan-heavy speedups", "clients")
	right := series.NewTable("Figure 2 (right): join-heavy speedups", "clients")
	for _, qid := range tpch.AllQueries {
		t := right
		if qid.ScanHeavy() {
			t = left
		}
		pl := tpch.Plan(qid)
		for _, n := range cpuGrid {
			for _, m := range sweepM(*clientsFlag) {
				z, err := sim.Speedup(pl, tpch.PivotName, m, simCfg(n))
				if err != nil {
					return err
				}
				t.Set(float64(m), fmt.Sprintf("%d cpu %s", n, qid), z)
			}
		}
	}
	emit(left)
	fmt.Println()
	emit(right)
	return nil
}

// runFigure4 reproduces the three model sensitivity sweeps of Figure 4.
func runFigure4() error {
	maxM := 40
	left := series.NewTable("Figure 4 (left): predicted speedup vs processors", "clients")
	for _, s := range core.SweepProcessors(core.Fig3Query(), []int{1, 4, 8, 12, 16, 24, 32}, maxM) {
		for _, p := range s.Points {
			left.Set(float64(p.M), s.Label, p.Value)
		}
	}
	emit(left)
	fmt.Println()
	center := series.NewTable("Figure 4 (center): predicted speedup vs pivot output cost s (32 cpu)", "clients")
	for _, s := range core.SweepPivotCost(core.Fig3Query(), []float64{0, 0.25, 0.5, 1, 2, 4}, core.NewEnv(32), maxM) {
		for _, p := range s.Points {
			center.Set(float64(p.M), s.Label, p.Value)
		}
	}
	emit(center)
	fmt.Println()
	right := series.NewTable("Figure 4 (right): predicted speedup vs work eliminated (8 cpu)", "clients")
	for _, s := range core.SweepWorkEliminated(core.NewEnv(8), maxM) {
		for _, p := range s.Points {
			right.Set(float64(p.M), s.Label, p.Value)
		}
	}
	emit(right)
	return nil
}

// runFigure5 reproduces Figure 5: predicted vs measured sharing speedups
// with the per-class error statistics.
func runFigure5() error {
	for _, scanHeavy := range []bool{true, false} {
		t, st, err := figure5(scanHeavy, sweepM(*clientsFlag))
		if err != nil {
			return err
		}
		emit(t)
		fmt.Printf("model vs measurement: %s\n\n", st)
	}
	return nil
}

// figure5 tabulates one query class of Figure 5 (scan-heavy Q1/Q6 or
// join-heavy Q4/Q13) over every processor count and the given client counts,
// and returns the model's relative error against the simulator.
func figure5(scanHeavy bool, ms []int) (*series.Table, series.ErrorStats, error) {
	label := "scan-heavy (Q1, Q6)"
	if !scanHeavy {
		label = "join-heavy (Q4, Q13)"
	}
	t := series.NewTable("Figure 5: model validation, "+label, "clients")
	var preds, meas []float64
	for _, qid := range tpch.AllQueries {
		if qid.ScanHeavy() != scanHeavy {
			continue
		}
		pl := tpch.Plan(qid)
		model := tpch.Model(qid)
		for _, n := range cpuGrid {
			env := core.NewEnv(float64(n))
			for _, m := range ms {
				measured, err := sim.Speedup(pl, tpch.PivotName, m, simCfg(n))
				if err != nil {
					return nil, series.ErrorStats{}, err
				}
				predicted := core.Z(model, m, env)
				t.Set(float64(m), fmt.Sprintf("%s %d cpu meas", qid, n), measured)
				t.Set(float64(m), fmt.Sprintf("%s %d cpu model", qid, n), predicted)
				preds = append(preds, predicted)
				meas = append(meas, measured)
			}
		}
	}
	return t, series.Compare(preds, meas), nil
}

// runFigure6 reproduces Figure 6: the three policies across the Q1/Q4 mix
// on 2 and 32 processors.
func runFigure6() error {
	for _, n := range []float64{2, 32} {
		t, vsNever, vsAlways := figure6(n)
		emit(t)
		fmt.Printf("average speedup of model-guided policy: %.2fx vs never-share, %.2fx vs always-share\n\n",
			vsNever, vsAlways)
	}
	return nil
}

// figure6 tabulates Figure 6 for 20 clients on n processors and returns the
// model-guided policy's average speedup over never-share and always-share.
func figure6(n float64) (t *series.Table, vsNever, vsAlways float64) {
	t = series.NewTable(fmt.Sprintf("Figure 6: policy throughput, 20 clients on %g processors", n), "% q4")
	var sumM, sumN, sumA float64
	for _, pt := range workload.Figure6Series(tpch.Model(tpch.Q1), tpch.Model(tpch.Q4), 20, n, 4) {
		t.Set(pt.FractionQ4*100, "model", pt.Model)
		t.Set(pt.FractionQ4*100, "never", pt.Never)
		t.Set(pt.FractionQ4*100, "always", pt.Always)
		sumM += pt.Model
		sumN += pt.Never
		sumA += pt.Always
	}
	return t, sumM / sumN, sumM / sumA
}

func simCfg(n int) sim.Config {
	return sim.Config{Processors: n, Horizon: *horizonFlag}
}
