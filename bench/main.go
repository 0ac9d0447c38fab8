// Command bench is the repository's benchmark: five named cordobad
// workloads, each run against an in-process server over the wire protocol,
// reporting the end-to-end metrics and, in a traced run, the per-layer ones
// that BENCHMARK.json names. See README.md.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh                       every workload, one process each
//	bash bench/run.sh -trace 1              ... plus a traced run of each
//	bash bench/run.sh -workloads alone,share -seed 7 -seconds 5 -out r.json
//	bash bench/run.sh -agree a.json b.json  compare two result files
//	bash bench/run.sh --workload alone --seed 1 --seconds 15 --trace 0
//
// The last form is one run of one workload; its last line of output is the
// JSON object the benchmark contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// benchmarkFile is the contract the metric names, directions and bounds are
// read from, relative to the repository root the command runs in.
const benchmarkFile = "BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json the command reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// report is one run in the contract's shape: exactly these keys, printed as
// the last line of a single run and kept per run in a result file.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what one invocation over several workloads writes.
type resultFile struct {
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []resultRun `json:"runs"`
}

type resultRun struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	report
}

func main() {
	var (
		one       = flag.String("workload", "", "run this one workload in this process and end with the contract's JSON line")
		list      = flag.String("workloads", "", "comma-separated workloads to run, one child process each (default: all)")
		seed      = flag.Uint64("seed", 1, "seed of the request sequence and arrival schedule")
		seconds   = flag.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1: report the per-layer metrics from a traced run (one workload), or add a traced run of each (several)")
		outDir    = flag.String("outdir", "bench/out", "directory for span files and the default result file")
		out       = flag.String("out", "", "result file of a run over several workloads (default: <outdir>/result.json)")
		agreeFlag = flag.Bool("agree", false, "compare two result files (arguments) against the bounds of BENCHMARK.json")
	)
	flag.Parse()
	if err := run(*one, *list, *seed, *seconds, *trace != 0, *outDir, *out, *agreeFlag); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(one, list string, seed uint64, seconds float64, traced bool, outDir, out string, agreeMode bool) error {
	spec, err := loadBenchmark(benchmarkFile)
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	if agreeMode {
		if flag.NArg() != 2 {
			return fmt.Errorf("-agree takes two result files")
		}
		return agree(spec, flag.Arg(0), flag.Arg(1))
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	if one != "" {
		return runOne(one, seed, seconds, traced, outDir)
	}
	names := strings.Split(list, ",")
	if list == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if out == "" {
		out = filepath.Join(outDir, "result.json")
	}
	return runAll(names, seed, seconds, traced, outDir, out)
}

// runOne is one run of one workload in this process: the named metrics with
// their units and sample counts, then the contract's JSON line.
func runOne(name string, seed uint64, seconds float64, traced bool, outDir string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	traceOut := ""
	if traced {
		traceOut = filepath.Join(outDir, name+".trace.json")
	}
	res, err := runWorkload(w, seed, time.Duration(seconds*float64(time.Second)), traced, traceOut)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("workload %s seed %d window %gs traced %v: %d attempted, %d failed, %d ok samples\n",
		name, seed, seconds, traced, res.Attempted, res.Failed, res.Samples)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if traced {
		fmt.Printf("  spans written to %s\n", traceOut)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	rep := report{Correct: res.Mismatches == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d replies differ from the reference results", name, res.Mismatches)
	}
	return nil
}

// runAll runs each workload in a child process of its own, because the page
// pool and the peak resident set are process-wide, and writes one result file.
func runAll(names []string, seed uint64, seconds float64, traced bool, outDir, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Seed: seed, Seconds: seconds}
	child := func(name string, traced bool) (report, error) {
		t := "0"
		if traced {
			t = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", t, "-outdir", outDir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", name, err)
		}
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return report{}, fmt.Errorf("%s: last line of output: %w", name, err)
		}
		file.Runs = append(file.Runs, resultRun{Workload: name, Traced: traced, report: rep})
		return rep, nil
	}
	for _, name := range names {
		plain, err := child(name, false)
		if err != nil {
			return err
		}
		if !traced {
			continue
		}
		tr, err := child(name, true)
		if err != nil {
			return err
		}
		// The traced window against the untraced one is what tracing costs.
		base := plain.Metrics["throughput_qps"].Value
		fmt.Printf("  %-32s %14.4f ratio (traced %.1f vs untraced %.1f 1/s)\n", "trace.overhead_frac",
			1-ratio(tr.Metrics["trace.throughput_qps"].Value, base), tr.Metrics["trace.throughput_qps"].Value, base)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", out)
	return nil
}

// failedFracBound is how far two runs' failed fractions may differ, absolute.
const failedFracBound = 0.005

// agree compares the untraced runs of two result files: every end-to-end
// metric of every workload must differ by no more than its bound in
// BENCHMARK.json, taken as a share of the better of the two values. It
// prints each pairing that does not and returns an error if any.
func agree(spec *benchmarkSpec, pathA, pathB string) error {
	load := func(path string) (map[string]report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs := make(map[string]report)
		for _, r := range f.Runs {
			if !r.Traced {
				runs[r.Workload] = r.report
			}
		}
		return runs, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	bad, compared := 0, 0
	for _, w := range spec.Workloads {
		ra, okA := a[w.Name]
		rb, okB := b[w.Name]
		if !okA || !okB {
			continue
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		if d := fa - fb; d > failedFracBound || -d > failedFracBound {
			fmt.Printf("DISAGREE %-11s %-18s %.4f vs %.4f (bound %.3f absolute)\n", w.Name, "failed fraction", fa, fb, failedFracBound)
			bad++
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			lo, hi := min(va, vb), max(va, vb)
			base := lo
			if m.Better == "higher" {
				base = hi
			}
			compared++
			if diff := ratio(hi-lo, base); diff > m.Bound {
				fmt.Printf("DISAGREE %-11s %-18s %.4f vs %.4f %s: %.1f%% apart, bound %.0f%%\n",
					w.Name, m.Name, va, vb, m.Unit, 100*diff, 100*m.Bound)
				bad++
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workload × metric pairings differ by more than their bound", bad, compared)
	}
	fmt.Printf("agree: %d workload × metric pairings within their bounds\n", compared)
	return nil
}
