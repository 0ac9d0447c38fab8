package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// setFlags sets the command-line flags for one test and restores them when
// it ends, so no test depends on another's settings.
func setFlags(t *testing.T, clients int, horizon float64, csv bool) {
	t.Helper()
	c, h, v := *clientsFlag, *horizonFlag, *csvFlag
	t.Cleanup(func() { *clientsFlag, *horizonFlag, *csvFlag = c, h, v })
	*clientsFlag, *horizonFlag, *csvFlag = clients, horizon, csv
}

// capture runs fig and returns what it printed to stdout.
func capture(t *testing.T, fig string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(fig)
	os.Stdout = stdout
	w.Close()
	s := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("figure %s: %v", fig, runErr)
	}
	return s
}

// Every figure target must execute end to end and print its own tables
// (correctness of the numbers is asserted by the package tests and the
// claim tests below — this guards the wiring).
func TestRunAllFigures(t *testing.T) {
	setFlags(t, 16, 800, false)
	for _, c := range []struct{ fig, title string }{
		{"example", "# Section 4.4 worked example"},
		{"1", "# Figure 1: Q6 sharing speedup"},
		{"2", "# Figure 2 (right): join-heavy speedups"},
		{"4", "# Figure 4 (right): predicted speedup vs work eliminated"},
		{"5", "# Figure 5: model validation, join-heavy (Q4, Q13)"},
		{"6", "# Figure 6: policy throughput, 20 clients on 32 processors"},
	} {
		t.Run(c.fig, func(t *testing.T) {
			if out := capture(t, c.fig); !strings.Contains(out, c.title) {
				t.Errorf("figure %s output lacks %q:\n%s", c.fig, c.title, out)
			}
		})
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

// -fig all prints every figure once, in paper order, each followed by a
// blank line.
func TestRunAllOrder(t *testing.T) {
	setFlags(t, 4, 200, false)
	out := capture(t, "all")
	at := 0
	for _, title := range []string{
		"# Section 4.4 worked example",
		"# Figure 1:",
		"# Figure 2 (left):",
		"# Figure 2 (right):",
		"# Figure 4 (left):",
		"# Figure 4 (center):",
		"# Figure 4 (right):",
		"# Figure 5: model validation, scan-heavy",
		"# Figure 5: model validation, join-heavy",
		"# Figure 6: policy throughput, 20 clients on 2 processors",
		"# Figure 6: policy throughput, 20 clients on 32 processors",
	} {
		i := strings.Index(out[at:], title)
		if i < 0 {
			t.Fatalf("%q missing or out of order in -fig all output:\n%s", title, out)
		}
		at += i + len(title)
	}
	if n := strings.Count(out, "# Figure 1:"); n != 1 {
		t.Errorf("Figure 1 printed %d times, want once", n)
	}
	if !strings.HasSuffix(out, "\n\n") {
		t.Error("-fig all output does not end with the blank separator line")
	}
}

// The simulator is seeded, so a figure's output is the same bytes on every
// run: the published tables can be regenerated and diffed.
func TestFiguresDeterministic(t *testing.T) {
	setFlags(t, 8, 400, false)
	first := capture(t, "2")
	if second := capture(t, "2"); first != second {
		t.Errorf("two runs of -fig 2 differ:\n%s\nvs\n%s", first, second)
	}
}

// -csv replaces each aligned table by a "# title" line and CSV rows whose
// first column is the table's x-axis.
func TestCSVOutput(t *testing.T) {
	setFlags(t, 8, 400, true)
	lines := strings.Split(capture(t, "4"), "\n")
	var titles int
	for i, l := range lines {
		if !strings.HasPrefix(l, "# Figure 4") {
			continue
		}
		titles++
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "clients,") {
			t.Errorf("table %q is not followed by a CSV header", l)
		}
	}
	if titles != 3 {
		t.Errorf("-csv -fig 4 printed %d tables, want 3", titles)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "clients ") {
			t.Errorf("-csv output holds an aligned header: %q", l)
		}
	}
}

// The worked example reports Q6's peak-throughput figures from the paper's
// coefficients and tabulates x and Z for every processor count and client
// count of the sweep.
func TestExampleReportsQ6Peak(t *testing.T) {
	setFlags(t, 16, 800, false)
	out := capture(t, "example")
	q := core.Q6Paper()
	want := fmt.Sprintf("p_max = %.4g, u' = %.4g, u = %.4g processors for peak throughput", q.PMax(), q.UPrime(), q.U())
	if !strings.Contains(out, want) {
		t.Errorf("example output lacks %q:\n%s", want, out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	// Two report lines, the table title and its header, then one row per m.
	if got, want := len(lines), 4+len(sweepM(16)); got != want {
		t.Errorf("example printed %d lines, want %d:\n%s", got, want, out)
	}
	for _, n := range cpuGrid {
		for _, col := range []string{"x_unshared %d cpu", "x_shared %d cpu", "Z %d cpu"} {
			if c := fmt.Sprintf(col, n); !strings.Contains(lines[3], c) {
				t.Errorf("example header lacks column %q: %q", c, lines[3])
			}
		}
	}
}

func TestSweepM(t *testing.T) {
	for _, c := range []struct {
		maxM int
		want []int
	}{
		{0, nil},
		{1, []int{1}},
		{10, []int{1, 2, 4, 8}},
		{48, []int{1, 2, 4, 8, 12, 16, 24, 32, 40, 48}},
		{100, []int{1, 2, 4, 8, 12, 16, 24, 32, 40, 48}},
	} {
		t.Run(fmt.Sprint(c.maxM), func(t *testing.T) {
			if got := sweepM(c.maxM); !reflect.DeepEqual(got, c.want) {
				t.Errorf("sweepM(%d) = %v, want %v", c.maxM, got, c.want)
			}
		})
	}
}

// Figure 6's x-axis is the percentage of Q4 clients. The label is passed
// through verbatim (it is not a format string), so it must read "% q4".
func TestFigure6Header(t *testing.T) {
	for _, n := range []float64{2, 32} {
		t.Run(fmt.Sprintf("%gcpu", n), func(t *testing.T) {
			tab, _, _ := figure6(n)
			// Line 0 is the title, line 1 the column header.
			if header := strings.Split(tab.ASCII(), "\n")[1]; !strings.HasPrefix(header, "% q4 ") {
				t.Errorf("header = %q, want it to start with %q", header, "% q4 ")
			}
			if csv := tab.CSV(); !strings.HasPrefix(csv, "% q4,") {
				t.Errorf("CSV header = %q", strings.SplitN(csv, "\n", 2)[0])
			}
		})
	}
}

// Figure 5's claim: the model tracks the measured speedups of all four
// queries on 1–32 processors within the paper's error band, per class
// (scan-heavy: max 22 %, avg 5.7 %; join-heavy: max 30 %, avg 5.9 %).
func TestFigure5ErrorBand(t *testing.T) {
	setFlags(t, *clientsFlag, 1500, false)
	ms := []int{2, 8, 24, 48}
	for _, c := range []struct {
		name           string
		scanHeavy      bool
		maxErr, avgErr float64
	}{
		{"scan-heavy", true, 0.22, 0.057},
		{"join-heavy", false, 0.30, 0.059},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, st, err := figure5(c.scanHeavy, ms)
			if err != nil {
				t.Fatal(err)
			}
			if want := 2 * len(cpuGrid) * len(ms); st.N != want {
				t.Errorf("compared %d points, want %d", st.N, want)
			}
			if st.Max > c.maxErr || st.Avg > c.avgErr {
				t.Errorf("%s, band is max %.0f%% avg %.1f%%", st, c.maxErr*100, c.avgErr*100)
			}
			t.Logf("%s", st)
		})
	}
}
