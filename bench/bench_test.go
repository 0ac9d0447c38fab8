package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/server"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n        int
		want     float64 // value, which for seq is also the 1-based rank
		wantUsed float64
	}{
		{n: 2000, want: 1980, wantUsed: 0.99}, // 20 beyond p99
		{n: 1100, want: 1089, wantUsed: 0.99}, // 11 beyond
		{n: 1000, want: 990, wantUsed: 0.99},  // exactly 10 beyond
		{n: 999, want: 989, wantUsed: 989.0 / 999},
		{n: 100, want: 90, wantUsed: 0.90},
		{n: 21, want: 11, wantUsed: 11.0 / 21},
		{n: 12, want: 6, wantUsed: 0.5}, // never below the median
		{n: 1, want: 1, wantUsed: 1},
	} {
		v, used := tailPercentile(seq(tc.n), 0.99)
		if v != tc.want || used != tc.wantUsed {
			t.Errorf("n=%d: got value %v at quantile %v, want %v at %v", tc.n, v, used, tc.want, tc.wantUsed)
		}
		if beyond := tc.n - int(v); tc.n >= 21 && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
	if v, _ := tailPercentile(nil, 0.99); v != 0 {
		t.Errorf("empty input: got %v, want 0", v)
	}
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := sequenceFor(w, 7, 2*time.Second)
		b := sequenceFor(w, 7, 2*time.Second)
		c := sequenceFor(w, 8, 2*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave the same sequence", w.name)
		}
	}
}

func TestSequenceMixAndSchedule(t *testing.T) {
	pairs := mixPairs()
	seq := genSequence(3, 10*len(pairs), 4)
	count := make(map[pair]int)
	for _, r := range seq {
		count[pair{r.family, r.variant}]++
	}
	for _, p := range pairs {
		if count[p] != 10 {
			t.Errorf("%v drawn %d times in 10 blocks, want 10", p, count[p])
		}
	}
	w, _ := workloadByName("open-churn")
	window := 3 * time.Second
	open := sequenceFor(w, 3, window)
	if want := warmupCount + int(openRate*window.Seconds()); len(open) != want {
		t.Fatalf("open loop: %d requests, want %d", len(open), want)
	}
	measured := open[warmupCount:]
	if !sort.SliceIsSorted(measured, func(i, j int) bool { return measured[i].due < measured[j].due }) {
		t.Error("open loop: due times are not ascending")
	}
	if last := measured[len(measured)-1].due; last < 0 || last >= window {
		t.Errorf("open loop: last due time %v outside the %v window", last, window)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, StartUS: 0, EndUS: 100},
		{Name: "server.handle", Parent: 0, StartUS: 20, EndUS: 90},
		{Name: "server.queue", Parent: 1, StartUS: 20, EndUS: 50},
		// Two overlapping children and one reaching past its parent: covered
		// time counts once and only inside the parent.
		{Name: "root", Parent: -1, StartUS: 0, EndUS: 100},
		{Name: "a", Parent: 3, StartUS: 10, EndUS: 40},
		{Name: "b", Parent: 3, StartUS: 30, EndUS: 60},
		{Name: "c", Parent: 3, StartUS: 90, EndUS: 130},
	}
	want := []float64{30, 40, 30, 40, 30, 30, 40}
	if got := selfTimesUS(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestMedianLatencyIsTheMedianSecond checks the rule behind latency_p50_ms: a
// few slow seconds move the median of all replies and leave the median
// second alone, while replies past the last whole second count in the totals
// only.
func TestMedianLatencyIsTheMedianSecond(t *testing.T) {
	win := window{length: 10 * time.Second}
	add := func(done, took time.Duration) {
		win.samples = append(win.samples, sample{due: done - took, done: done, status: server.StatusOK, rowsOK: true})
	}
	for sec := 0; sec < 10; sec++ {
		took, n := 2*time.Millisecond, 10
		if sec >= 7 { // a neighbour takes a core: slower replies, and a backlog of them
			took, n = 9*time.Millisecond, 30
		}
		for i := 0; i < n; i++ {
			add(time.Duration(sec)*time.Second+time.Duration(i+1)*20*time.Millisecond, took)
		}
	}
	add(10*time.Second+time.Millisecond, 50*time.Millisecond) // in flight when the window closed
	win.before.at = time.Now()
	win.after.at = win.before.at.Add(win.length)
	res := &runResult{Metrics: make(map[string]metric)}
	endToEnd(res, win)
	if got := res.Metrics["latency_p50_ms"].Value; got != 2 {
		t.Errorf("latency_p50_ms = %v, want the median second's 2 (the median of all replies is 9)", got)
	}
	if res.Attempted != 161 || res.Failed != 0 || res.Samples != 161 {
		t.Errorf("attempted %d failed %d samples %d, want 161 0 161", res.Attempted, res.Failed, res.Samples)
	}
	if got := res.Metrics["throughput_qps"].Value; got != 16.1 {
		t.Errorf("throughput_qps = %v, want 16.1 over the whole window", got)
	}

	// A window shorter than a second is one bucket of its own length.
	short := window{length: 500 * time.Millisecond, samples: win.samples[:3]}
	res = &runResult{Metrics: make(map[string]metric)}
	endToEnd(res, short)
	if got := res.Metrics["latency_p50_ms"].Value; got != 2 {
		t.Errorf("short window: latency_p50_ms = %v, want 2", got)
	}
}

// TestSmokeEmitsTheNamesOfBenchmarkJSON builds the command, runs every
// workload for one second, untraced and traced, and checks that the workload
// and metric names that come out are exactly those BENCHMARK.json declares.
func TestSmokeEmitsTheNamesOfBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	spec, err := loadBenchmark(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	resultPath := filepath.Join(dir, "result.json")
	cmd := exec.Command(bin, "-seconds", "1", "-trace", "1", "-outdir", dir, "-out", resultPath)
	cmd.Dir = ".." // the command reads BENCHMARK.json from the repository root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out)
	}
	data, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	var wantRuns, gotRuns []string
	for _, w := range spec.Workloads {
		wantRuns = append(wantRuns, w.Name+" untraced", w.Name+" traced")
	}
	for _, r := range file.Runs {
		kind, want := " untraced", names(spec.EndToEnd)
		if r.Traced {
			kind, want = " traced", names(spec.PerLayer)
		}
		gotRuns = append(gotRuns, r.Workload+kind)
		var got []string
		for n := range r.Metrics {
			got = append(got, n)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s%s: metrics %v, want %v", r.Workload, kind, got, want)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s%s: correct %v, %d of %d failed", r.Workload, kind, r.Correct, r.Failed, r.Attempted)
		}
		if r.Traced {
			if _, err := os.Stat(filepath.Join(dir, r.Workload+".trace.json")); err != nil {
				t.Errorf("%s: no span file: %v", r.Workload, err)
			}
		}
	}
	if !reflect.DeepEqual(gotRuns, wantRuns) {
		t.Errorf("runs %v, want %v", gotRuns, wantRuns)
	}
	for i, w := range workloads {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in the command, not the one BENCHMARK.json lists there", i, w.name)
		}
	}
	if err := agree(spec, resultPath, resultPath); err != nil {
		t.Errorf("a result file does not agree with itself: %v", err)
	}
}
