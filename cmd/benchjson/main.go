// Command benchjson runs the ablation measurements and emits them as
// machine-readable JSON (BENCH_PR10.json by default; -out picks the file),
// so CI can archive the perf trajectory run over run instead of letting
// benchmark output scroll away.
//
// Nine experiments run on the real staged engine:
//
//   - the policy sweep: the closed-loop Q1/Q4 mix under every sharing
//     policy (never, always, model, inflight, parallel, hybrid, subplan),
//     reporting measured q/min plus the sharing/parallelism counters;
//   - the pivot-level ablation: batches of identical Q6-family queries
//     sharing at the scan vs at the aggregate across group sizes, measured
//     q/min next to the model's predicted rate for the same regime;
//   - the build-share ablation: batches of different Q4-family variants
//     amortizing one hash build, swept over probe fan-in (group size) ×
//     build cost (the fraction of the orderkey space the build hashes),
//     measured shared vs run-alone q/min next to the model's predicted
//     build-share speedup, with the executed-build counter asserting the
//     build ran exactly once per shared batch;
//   - the cache ablation: two bursts of Q4-family variants separated by an
//     idle gap, swept over gap (below vs above the keep-alive TTL) × cache
//     byte budget (ample vs too small for the build). qpm_warm vs qpm_cold
//     shows what retention buys; when the gap is inside the window and the
//     budget admits the table, the warm burst must execute zero hash builds
//     (asserted — the run fails otherwise).
//   - the open-loop ablation: a live cordobad server per policy (never,
//     model, subplan) fed the same Poisson arrival schedule, calibrated to
//     ~3× the measured single-query capacity so admission control must act.
//     Each cell reports the offered/ok/shed accounting and the p50/p95/p99
//     latency tail — the run fails if any arrival goes unanswered or errors,
//     or if the saturated never-share server never sheds.
//   - the hot-path ablation: the submit-path compile step cold (full
//     canonicalization) vs warm (the epoch + structural guard of a memoized
//     artifact), whole submits cold vs warm, pre-sized vs unsized hash-build
//     construction (allocs/op), and pooled vs fresh selection vectors. The
//     run fails unless the warm compile check is ≥2× faster than the cold
//     compile, pre-sized builds allocate less, and all arms produce
//     byte-identical results.
//   - the shard ablation: the full scatter-gather family mix over clusters
//     of 1, 2 and 4 engine shards under the never and subplan policies.
//     Each cell reports wall-clock q/min alongside emulated-capacity q/min
//     (completions over the busiest shard's busy-time makespan — the
//     machine-independent metric on hosts with fewer cores than shards),
//     plus the cluster's scatter/build/bus counters, and every scattered
//     result is checked against the single-engine reference. The run fails
//     if 4-shard subplan capacity is not >= 2x the 1-shard capacity, if the
//     cross-shard bus lets any shard rebuild an artifact already sealed on
//     it (one hash build per shared family, counter-asserted), or if any
//     scattered result disagrees with the reference.
//   - the execution-core ablation: the closed-loop subplan mix swept over
//     worker counts (1, 2, 4, 8) on the work-stealing scheduler, each cell
//     reporting wall-clock q/min next to emulated-capacity q/min
//     (completions over Σ busy-time / workers — the machine-independent
//     metric on hosts with fewer cores than workers) and the steal counter;
//     plus fused vs staged operator chains on the chain-bearing plans
//     (q/min and allocs/op per arm, measured on the same engine options
//     with only Options.NoFusion flipped), the page-pool recycling
//     counters, and a fusion-identity check of every query and family
//     variant against the unfused single-worker reference. The run fails
//     if 8-worker capacity is not >= 2x the 1-worker capacity, if fusion
//     does not beat the staged arm on q/min with fewer allocs/op on the
//     linear-chain plan, or if any fused result differs byte-for-byte from
//     the unfused single-worker reference.
//   - the tracing-overhead ablation: the same plan submitted and drained on
//     identical engines with lifecycle tracing at its default ring capacity
//     versus disabled (Options.TraceCap < 0), trials interleaved arm by arm.
//     The run fails if the instrumented arm falls more than 3% below the
//     bare arm's q/min — the telemetry layer must stay effectively free.
//
// Usage:
//
//	benchjson [-sf 0.002] [-workers 2] [-clients 8] [-fq4 0.5]
//	          [-duration 300ms] [-arrivals 120] [-out BENCH_PR10.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/relop"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

var (
	sfFlag       = flag.Float64("sf", 0.002, "TPC-H scale factor")
	seedFlag     = flag.Uint64("seed", 42, "data generator seed")
	workersFlag  = flag.Int("workers", 2, "emulated processors")
	clientsFlag  = flag.Int("clients", 8, "closed-loop clients in the policy sweep")
	fq4Flag      = flag.Float64("fq4", 0.5, "fraction of clients running Q4")
	durationFlag = flag.Duration("duration", 300*time.Millisecond, "measurement duration per policy")
	arrivalsFlag = flag.Int("arrivals", 120, "open-loop arrivals offered per policy")
	outFlag      = flag.String("out", "BENCH_PR10.json", "output file (- for stdout)")
)

// PolicyResult is one policy sweep measurement.
type PolicyResult struct {
	Policy           string        `json:"policy"`
	QueriesPerMinute float64       `json:"qpm"`
	Completions      int           `json:"completions"`
	InflightAttaches int64         `json:"inflight_attaches"`
	ParallelRuns     int64         `json:"parallel_runs"`
	ParallelClones   int64         `json:"parallel_clones"`
	PivotJoins       map[int]int64 `json:"pivot_joins,omitempty"`
	HashBuilds       int64         `json:"hash_builds,omitempty"`
	BuildJoins       int64         `json:"build_joins,omitempty"`
}

// BuildShareResult is one build-share ablation cell: m different Q4-family
// variants amortizing one hash build of the given cost fraction, vs the
// same batch run alone.
type BuildShareResult struct {
	Probes           int     `json:"probes"`
	BuildFrac        float64 `json:"build_frac"`
	QueriesPerMinute float64 `json:"qpm_shared"`
	AloneQPM         float64 `json:"qpm_alone"`
	HashBuilds       int64   `json:"hash_builds"`
	PredictedSpeedup float64 `json:"pred_speedup"`
}

// PivotLevelResult is one pivot-level ablation cell.
type PivotLevelResult struct {
	Level            int     `json:"level"`
	GroupSize        int     `json:"group_size"`
	QueriesPerMinute float64 `json:"qpm"`
	PredictedX       float64 `json:"pred_x"`
}

// CacheAblationResult is one cache ablation cell: two bursts of Q4-family
// variants separated by IdleGapMS, on an engine whose keep-alive cache holds
// BudgetBytes. The cold burst builds the family's hash table; whether the
// warm burst rebuilds depends on the gap (inside or past the keep-alive TTL)
// and on whether the budget admitted the table.
type CacheAblationResult struct {
	IdleGapMS   int64   `json:"idle_gap_ms"`
	TTLMS       int64   `json:"ttl_ms"`
	BudgetBytes int64   `json:"budget_bytes"`
	QPMCold     float64 `json:"qpm_cold"`
	QPMWarm     float64 `json:"qpm_warm"`
	ColdBuilds  int64   `json:"cold_builds"`
	WarmBuilds  int64   `json:"warm_builds"`
	CacheHits   int64   `json:"cache_hits"`
	CacheBytes  int64   `json:"cache_bytes"`
}

// OpenLoopPolicyResult is one open-loop ablation cell: a live cordobad
// server under one sharing policy, offered the same Poisson schedule above
// single-query capacity, with the admission accounting and the latency tail.
type OpenLoopPolicyResult struct {
	Policy     string  `json:"policy"`
	RatePerSec float64 `json:"rate_per_sec"`
	Offered    int     `json:"offered"`
	OK         int     `json:"ok"`
	Shed       int     `json:"shed"`
	QueuedOK   int     `json:"queued_ok"`
	SharedOK   int     `json:"shared_ok"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
}

// HotPathResult is the hot-path ablation: the submit-path compile step cold
// vs warm, whole submits cold vs warm, pre-sized vs unsized hash-build
// construction, and pooled vs fresh selection vectors.
type HotPathResult struct {
	ColdCompileNS      float64 `json:"cold_compile_ns_op"`
	WarmCheckNS        float64 `json:"warm_check_ns_op"`
	CompileSpeedupX    float64 `json:"compile_speedup_x"`
	ColdSubmitQPM      float64 `json:"qpm_submit_cold"`
	WarmSubmitQPM      float64 `json:"qpm_submit_warm"`
	WarmCompileHits    int64   `json:"warm_compile_hits"`
	SizedBuildAllocs   float64 `json:"sized_build_allocs_op"`
	UnsizedBuildAllocs float64 `json:"unsized_build_allocs_op"`
	PooledSelAllocs    float64 `json:"pooled_sel_allocs_op"`
	FreshSelAllocs     float64 `json:"fresh_sel_allocs_op"`
	ResultsIdentical   bool    `json:"results_identical"`
}

// ShardAblationResult is one shard ablation cell: the full scatter-gather
// family mix (every family × every variant, twice) over a cluster of Shards
// engines under one sharing policy. QPMWall is measured wall-clock
// throughput; QPMCapacity is the emulated-machine metric — completions over
// the busiest shard's busy-time makespan (Σ busy / workers, maxed over
// shards) — which measures what the topology buys even when the host has
// fewer physical cores than the cluster has shards.
type ShardAblationResult struct {
	Shards        int     `json:"shards"`
	Policy        string  `json:"policy"`
	Completions   int     `json:"completions"`
	QPMWall       float64 `json:"qpm_wall"`
	QPMCapacity   float64 `json:"qpm_capacity"`
	Scatters      int64   `json:"scatters"`
	Routed        int64   `json:"routed"`
	HashBuilds    int64   `json:"hash_builds"`
	BusJoins      int64   `json:"bus_joins"`
	CompileMisses int64   `json:"compile_misses"`
	CompileHits   int64   `json:"compile_hits"`
	// Identical reports the scattered results matched the single-engine
	// reference: byte-identical for the integer-count families, within
	// summation-order float jitter (1e-9 relative) for the sum-heavy ones.
	Identical bool `json:"results_identical"`
}

// ShardOneBuildResult is the cross-shard bus gate: one Q4 and one Q13
// scattered over four paused shards must run exactly one hash build per
// family cluster-wide, with every other shard attaching through the bus
// before any work runs.
type ShardOneBuildResult struct {
	Shards     int   `json:"shards"`
	Families   int   `json:"families"`
	HashBuilds int64 `json:"hash_builds"`
	BusJoins   int64 `json:"bus_joins"`
	Identical  bool  `json:"results_identical"`
}

// WorkerScalingResult is one execution-core scaling cell: the closed-loop
// Q1/Q4 mix under the subplan policy on a W-worker engine. QPMWall is
// measured wall-clock throughput; QPMCapacity is the emulated-machine metric
// — completions over the engine's busy-time makespan (Σ busy / workers) —
// which measures what the scheduler topology buys even when the host has
// fewer physical cores than the engine has workers. Steals counts tasks
// workers took from peers' run queues.
type WorkerScalingResult struct {
	Workers     int     `json:"workers"`
	Completions int     `json:"completions"`
	QPMWall     float64 `json:"qpm_wall"`
	QPMCapacity float64 `json:"qpm_capacity"`
	Steals      int64   `json:"steals"`
}

// FusionResult is one fused-vs-staged cell: the same plan run to completion
// on identical engines with only Options.NoFusion flipped, reporting
// throughput and whole-query allocations per arm. Identical asserts both
// arms rendered byte-identical results.
type FusionResult struct {
	Plan         string  `json:"plan"`
	FusedQPM     float64 `json:"qpm_fused"`
	StagedQPM    float64 `json:"qpm_staged"`
	FusedAllocs  float64 `json:"fused_allocs_op"`
	StagedAllocs float64 `json:"staged_allocs_op"`
	Identical    bool    `json:"results_identical"`
}

// FusionIdentityResult is the correctness gate for the execution core: every
// benchmark query and every family variant, run fused on the multi-worker
// engine, compared byte-for-byte against the unfused single-worker reference.
type FusionIdentityResult struct {
	Plans     int  `json:"plans"`
	Identical bool `json:"results_identical"`
}

// PagePoolResult is the storage page-pool accounting over the whole run:
// Gets counts pages drawn via GetPage, Hits counts per-column draws satisfied
// from recycled storage (up to one per column per page), and Puts counts
// pages returned to the pool by last-owner releases.
type PagePoolResult struct {
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	Puts int64 `json:"puts"`
}

// Report is the emitted document.
type Report struct {
	Bench         string                 `json:"bench"`
	Config        map[string]any         `json:"config"`
	Policies      []PolicyResult         `json:"policies"`
	PivotLevels   []PivotLevelResult     `json:"pivot_levels"`
	BuildShare    []BuildShareResult     `json:"build_share"`
	CacheAblation []CacheAblationResult  `json:"cache_ablation"`
	OpenLoop      []OpenLoopPolicyResult `json:"open_loop"`
	HotPath       HotPathResult          `json:"hot_path"`
	ShardAblation []ShardAblationResult  `json:"shard_ablation"`
	ShardOneBuild ShardOneBuildResult    `json:"shard_one_build"`
	WorkerScaling []WorkerScalingResult  `json:"worker_scaling"`
	Fusion        []FusionResult         `json:"fusion"`
	FusionIdent   FusionIdentityResult   `json:"fusion_identity"`
	PagePool      PagePoolResult         `json:"page_pool"`
	Tracing       TracingOverheadResult  `json:"tracing_overhead"`
}

// TracingOverheadResult compares throughput of one plan with lifecycle
// tracing at its default ring capacity against tracing disabled, on
// otherwise identical engines. OverheadPct is how far the instrumented arm
// fell below the bare arm (negative = instrumented measured faster).
type TracingOverheadResult struct {
	Plan            string  `json:"plan"`
	InstrumentedQPM float64 `json:"instrumented_qpm"`
	BareQPM         float64 `json:"bare_qpm"`
	OverheadPct     float64 `json:"overhead_pct"`
	Identical       bool    `json:"identical"`
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: *sfFlag, Seed: *seedFlag})
	if err != nil {
		return err
	}
	report := Report{
		Bench: "PR10",
		Config: map[string]any{
			"sf":          *sfFlag,
			"seed":        *seedFlag,
			"workers":     *workersFlag,
			"clients":     *clientsFlag,
			"fq4":         *fq4Flag,
			"duration_ms": durationFlag.Milliseconds(),
			"arrivals":    *arrivalsFlag,
		},
	}

	// Policy sweep on the closed-loop Q1/Q4 mix.
	mix := workload.EngineMix{
		Specs: map[string]engine.QuerySpec{
			"Q1": tpch.MustEngineSpec(tpch.Q1, db, 0),
			"Q4": tpch.MustEngineSpec(tpch.Q4, db, 0),
		},
		Assignment: workload.Assign("Q1", "Q4", *clientsFlag, *fq4Flag),
	}
	for _, name := range policy.Names {
		pol, inflight, err := policy.ByName(name, core.NewEnv(float64(*workersFlag)), *workersFlag)
		if err != nil {
			return err
		}
		e, err := engine.New(engine.Options{Workers: *workersFlag, InflightSharing: inflight})
		if err != nil {
			return err
		}
		res, err := mix.Run(e, policy.ForEngine(pol), *durationFlag)
		e.Close()
		if err != nil {
			return fmt.Errorf("policy %s: %w", name, err)
		}
		report.Policies = append(report.Policies, PolicyResult{
			Policy:           name,
			QueriesPerMinute: res.QueriesPerMinute,
			Completions:      res.Completions,
			InflightAttaches: res.InflightAttaches,
			ParallelRuns:     res.ParallelRuns,
			ParallelClones:   res.ParallelClones,
			PivotJoins:       res.PivotJoins,
			HashBuilds:       res.HashBuilds,
			BuildJoins:       res.BuildJoins,
		})
	}

	// Pivot-level ablation: measured q/min vs predicted x per (level, m).
	env := core.NewEnv(float64(*workersFlag))
	for _, level := range []int{0, 2} {
		for _, m := range []int{2, 6} {
			qpm, err := pivotLevelCell(db, level, m, *workersFlag)
			if err != nil {
				return err
			}
			report.PivotLevels = append(report.PivotLevels, PivotLevelResult{
				Level:            level,
				GroupSize:        m,
				QueriesPerMinute: qpm,
				PredictedX:       core.SharedX(tpch.Q6FamilyModel(level), m, env),
			})
		}
	}

	// Build-share ablation: probe fan-in × build cost, measured shared and
	// alone q/min next to the model's predicted amortization speedup.
	for _, m := range []int{2, 6} {
		for _, frac := range []float64{0.25, 1.0} {
			cell, err := buildShareCell(db, m, frac, *workersFlag)
			if err != nil {
				return err
			}
			model := tpch.Q4FamilyModel(0)
			model.PivotW *= frac
			cell.PredictedSpeedup = core.BuildShareSpeedup(model, m, env)
			report.BuildShare = append(report.BuildShare, cell)
		}
	}

	// Cache ablation: idle gap × memory budget over two bursts of the Q4
	// family. The keep-alive window is fixed; a gap inside it with an ample
	// budget must make the warm burst build-free.
	const cacheTTL = 250 * time.Millisecond
	for _, gap := range []time.Duration{30 * time.Millisecond, 400 * time.Millisecond} {
		for _, budget := range []int64{2 << 10, 64 << 20} {
			cell, err := cacheCell(db, 3, gap, cacheTTL, budget, *workersFlag)
			if err != nil {
				return err
			}
			if gap < cacheTTL && budget >= 64<<20 && cell.WarmBuilds != 0 {
				return fmt.Errorf("cache ablation: warm burst executed %d hash builds with gap %v inside TTL %v and an ample budget, want 0",
					cell.WarmBuilds, gap, cacheTTL)
			}
			report.CacheAblation = append(report.CacheAblation, cell)
		}
	}

	// Open-loop ablation: the same over-capacity Poisson schedule against a
	// live server per policy.
	report.OpenLoop, err = openLoopSweep(db, *workersFlag, *arrivalsFlag, *seedFlag)
	if err != nil {
		return err
	}

	// Hot-path ablation, with its hard gates: the warm compile check must
	// be ≥2× faster than a cold compile, pre-sized builds must allocate
	// less (the flat join index allocates per growth step, not per key, so
	// the counts are tens — about 33 against 50 — and the hint's share of
	// them, the row storage and the rows' key ids, is a third), and every
	// arm must produce byte-identical results.
	report.HotPath, err = hotPathCell(db, *workersFlag)
	if err != nil {
		return err
	}
	if report.HotPath.CompileSpeedupX < 2 {
		return fmt.Errorf("hot path: warm compile check only %.2fx faster than cold compile, want >= 2x",
			report.HotPath.CompileSpeedupX)
	}
	if report.HotPath.SizedBuildAllocs >= report.HotPath.UnsizedBuildAllocs {
		return fmt.Errorf("hot path: pre-sized build allocates %.1f/op vs %.1f/op unsized, want fewer",
			report.HotPath.SizedBuildAllocs, report.HotPath.UnsizedBuildAllocs)
	}
	if !report.HotPath.ResultsIdentical {
		return fmt.Errorf("hot path: arms disagree on query results")
	}

	// Shard ablation: shard count × policy over the scatter-gather family
	// mix, with the throughput, one-build, and correctness gates.
	// Each cell keeps the best capacity of three runs: the metric divides by
	// profiled busy time, and on a host with fewer cores than the cluster
	// has workers, descheduling mid-quantum only ever inflates busy time —
	// so the max over runs is the least-interfered estimate of what the
	// topology sustains, applied to both sides of the scaling gate alike.
	capacity := map[string]float64{}
	for _, k := range []int{1, 2, 4} {
		for _, polName := range []string{"never", "subplan"} {
			var cell ShardAblationResult
			for try := 0; try < 3; try++ {
				c, err := shardCell(db, k, polName, *workersFlag)
				if err != nil {
					return fmt.Errorf("shard ablation %d/%s: %w", k, polName, err)
				}
				if !c.Identical {
					return fmt.Errorf("shard ablation: %d-shard %s results disagree with the single-engine reference", k, polName)
				}
				if try == 0 || c.QPMCapacity > cell.QPMCapacity {
					cell = c
				}
			}
			capacity[fmt.Sprintf("%d/%s", k, polName)] = cell.QPMCapacity
			report.ShardAblation = append(report.ShardAblation, cell)
		}
	}
	if c1, c4 := capacity["1/subplan"], capacity["4/subplan"]; c4 < 2*c1 {
		return fmt.Errorf("shard ablation: 4-shard subplan capacity %.0f q/min is not >= 2x the 1-shard %.0f q/min",
			c4, c1)
	}
	report.ShardOneBuild, err = shardOneBuildCell(db, *workersFlag)
	if err != nil {
		return err
	}
	ob := report.ShardOneBuild
	if ob.HashBuilds != int64(ob.Families) {
		return fmt.Errorf("shard bus: %d hash builds for %d shared families over %d shards — a shard rebuilt an artifact already sealed on the bus",
			ob.HashBuilds, ob.Families, ob.Shards)
	}
	if want := int64(ob.Families * (ob.Shards - 1)); ob.BusJoins != want {
		return fmt.Errorf("shard bus: %d bus joins, want %d (%d families × %d non-anchor shards)",
			ob.BusJoins, want, ob.Families, ob.Shards-1)
	}
	if !ob.Identical {
		return fmt.Errorf("shard bus: bus-shared scattered results disagree with the reference")
	}

	// Execution-core ablation: the work-stealing scheduler's worker sweep,
	// fused vs staged operator chains, and the fusion-identity gate.
	scaling := map[int]float64{}
	for _, w := range []int{1, 2, 4, 8} {
		cell, err := workerScalingCell(db, w, *clientsFlag, *fq4Flag, *durationFlag)
		if err != nil {
			return fmt.Errorf("worker scaling %d: %w", w, err)
		}
		scaling[w] = cell.QPMCapacity
		report.WorkerScaling = append(report.WorkerScaling, cell)
	}
	if c1, c8 := scaling[1], scaling[8]; c8 < 2*c1 {
		return fmt.Errorf("worker scaling: 8-worker capacity %.0f q/min is not >= 2x the 1-worker %.0f q/min", c8, c1)
	}
	// The q6-chain plan is the linear scan→filter→agg segment fusion
	// collapses into one task (the pivot list is pinned empty so the whole
	// residual chain stays private); q13 exercises fusion around a
	// build/probe pivot and is reported alongside.
	q6chain := tpch.Q6FamilySpec(db, 0, 0)
	q6chain.Pivots = nil
	fusionPlans := []struct {
		name string
		spec engine.QuerySpec
	}{
		{"q6-chain", q6chain},
		{"q13", tpch.MustEngineSpec(tpch.Q13, db, 0)},
	}
	for _, p := range fusionPlans {
		cell, err := fusionCell(db, p.name, p.spec, *workersFlag)
		if err != nil {
			return fmt.Errorf("fusion %s: %w", p.name, err)
		}
		if !cell.Identical {
			return fmt.Errorf("fusion %s: fused and staged arms disagree on results", p.name)
		}
		report.Fusion = append(report.Fusion, cell)
	}
	chain := report.Fusion[0]
	if chain.FusedQPM <= chain.StagedQPM {
		return fmt.Errorf("fusion %s: fused %.0f q/min does not beat staged %.0f q/min",
			chain.Plan, chain.FusedQPM, chain.StagedQPM)
	}
	if chain.FusedAllocs >= chain.StagedAllocs {
		return fmt.Errorf("fusion %s: fused allocates %.0f/op vs %.0f/op staged, want fewer",
			chain.Plan, chain.FusedAllocs, chain.StagedAllocs)
	}
	report.FusionIdent, err = fusionIdentityCell(db, *workersFlag)
	if err != nil {
		return err
	}
	if !report.FusionIdent.Identical {
		return fmt.Errorf("fusion identity: a fused result differs from the unfused single-worker reference")
	}
	gets, hits, puts := storage.PagePoolStats()
	report.PagePool = PagePoolResult{Gets: gets, Hits: hits, Puts: puts}

	// Tracing-overhead ablation, with its hard gate: the lifecycle telemetry
	// must cost at most 3% of throughput against a tracing-disabled engine.
	report.Tracing, err = tracingCell(db, *workersFlag)
	if err != nil {
		return fmt.Errorf("tracing overhead: %w", err)
	}
	if !report.Tracing.Identical {
		return fmt.Errorf("tracing overhead: instrumented and bare arms disagree on results")
	}
	if report.Tracing.OverheadPct > 3.0 {
		return fmt.Errorf("tracing overhead: %.1f%% paired-median overhead exceeds the 3%% budget (instrumented %.0f q/min vs bare %.0f q/min)",
			report.Tracing.OverheadPct, report.Tracing.InstrumentedQPM, report.Tracing.BareQPM)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *outFlag == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*outFlag, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d policies, %d pivot-level cells, %d build-share cells, %d cache cells, %d open-loop cells, compile warm %.1fx, %d shard cells, 4-shard capacity %.1fx, 8-worker capacity %.1fx, %s fusion %.2fx, tracing overhead %.1f%%)\n",
		*outFlag, len(report.Policies), len(report.PivotLevels), len(report.BuildShare), len(report.CacheAblation), len(report.OpenLoop),
		report.HotPath.CompileSpeedupX, len(report.ShardAblation),
		capacity["4/subplan"]/capacity["1/subplan"],
		scaling[8]/scaling[1], chain.Plan, chain.FusedQPM/chain.StagedQPM,
		report.Tracing.OverheadPct)
	return nil
}

// tracingCell measures the lifecycle-telemetry cost: the same plan submitted
// and drained sequentially on identical engines with tracing at its default
// ring capacity versus disabled (Options.TraceCap < 0). The true overhead is
// a fraction of a percent while host jitter between whole timed batches runs
// ±10%, so the arms interleave at single-submit granularity — each pair of
// back-to-back submits sits inside one noise window — and the overhead is the
// median of the per-pair duration ratios. Rotating which arm leads each pair
// keeps the leader's wake-from-idle cost from billing to one arm; the paired
// median discards the tail where a scheduling hiccup lands between the two
// submits of a pair.
func tracingCell(db *tpch.DB, workers int) (TracingOverheadResult, error) {
	spec := tpch.MustEngineSpec(tpch.Q1, db, 0)
	type arm struct {
		e       *engine.Engine
		last    *storage.Batch
		samples []time.Duration
	}
	newArm := func(traceCap int) (*arm, error) {
		e, err := engine.New(engine.Options{Workers: workers, TraceCap: traceCap})
		if err != nil {
			return nil, err
		}
		return &arm{e: e}, nil
	}
	runOne := func(a *arm) error {
		h, err := a.e.Submit(spec, nil)
		if err != nil {
			return err
		}
		a.last, err = h.Wait()
		return err
	}
	instrumented, err := newArm(0) // 0 = the default ring capacity
	if err != nil {
		return TracingOverheadResult{}, err
	}
	defer instrumented.e.Close()
	bare, err := newArm(-1)
	if err != nil {
		return TracingOverheadResult{}, err
	}
	defer bare.e.Close()
	arms := []*arm{instrumented, bare}
	for _, a := range arms {
		if err := runOne(a); err != nil { // warm the compile memo off the clock
			return TracingOverheadResult{}, err
		}
	}
	const submits = 180
	for i := 0; i < submits; i++ {
		first := i % len(arms)
		for k := 0; k < len(arms); k++ {
			j := (first + k) % len(arms)
			start := time.Now()
			if err := runOne(arms[j]); err != nil {
				return TracingOverheadResult{}, err
			}
			arms[j].samples = append(arms[j].samples, time.Since(start))
		}
	}
	median := func(a *arm) time.Duration {
		s := append([]time.Duration(nil), a.samples...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[len(s)/2]
	}
	ratios := make([]float64, submits)
	for i := range ratios {
		ratios[i] = float64(instrumented.samples[i]) / float64(bare.samples[i])
	}
	sort.Float64s(ratios)
	// Headline q/min per arm comes from each arm's own median submit; the
	// gated overhead comes from the paired ratios, which cancel drift the
	// independent medians can't.
	return TracingOverheadResult{
		Plan:            "q1",
		InstrumentedQPM: 1 / median(instrumented).Minutes(),
		BareQPM:         1 / median(bare).Minutes(),
		OverheadPct:     100 * (ratios[submits/2] - 1),
		Identical:       renderBatch(instrumented.last) == renderBatch(bare.last),
	}, nil
}

// workerScalingCell runs the closed-loop Q1/Q4 mix under the subplan policy
// on a fresh workers-wide engine in Profile mode. The capacity metric reads
// the profiled per-node busy times: the engine is done no sooner than its
// busy-time makespan (Σ busy / workers), so completions over that makespan is
// the throughput a machine with one core per emulated worker would sustain,
// independent of how many cores this host actually has. (Profile mode runs
// the staged task graph — the scheduler under test is the same either way,
// and staged plans give it strictly more tasks to balance.)
func workerScalingCell(db *tpch.DB, workers, clients int, fq4 float64, dur time.Duration) (WorkerScalingResult, error) {
	mix := workload.EngineMix{
		Specs: map[string]engine.QuerySpec{
			"Q1": tpch.MustEngineSpec(tpch.Q1, db, 0),
			"Q4": tpch.MustEngineSpec(tpch.Q4, db, 0),
		},
		Assignment: workload.Assign("Q1", "Q4", clients, fq4),
	}
	pol, inflight, err := policy.ByName("subplan", core.NewEnv(float64(workers)), workers)
	if err != nil {
		return WorkerScalingResult{}, err
	}
	e, err := engine.New(engine.Options{Workers: workers, InflightSharing: inflight, Profile: true})
	if err != nil {
		return WorkerScalingResult{}, err
	}
	res, err := mix.Run(e, policy.ForEngine(pol), dur)
	var busy time.Duration
	for _, d := range e.BusyTimes() {
		busy += d
	}
	steals := e.Steals()
	e.Close()
	if err != nil {
		return WorkerScalingResult{}, err
	}
	cell := WorkerScalingResult{
		Workers:     workers,
		Completions: res.Completions,
		QPMWall:     res.QueriesPerMinute,
		Steals:      steals,
	}
	if makespan := busy / time.Duration(workers); makespan > 0 {
		cell.QPMCapacity = float64(res.Completions) / makespan.Minutes()
	}
	return cell, nil
}

// fusionCell measures one fused-vs-staged pair: the same plan submitted and
// drained sequentially on identical engines with only Options.NoFusion
// flipped. The arms' timed batches are interleaved trial by trial — the arms
// differ by single-digit percents, so host drift between a fully-measured
// first arm and a fully-measured second would decide the gate instead of the
// engines — and each arm keeps its best trial. Allocations come from
// testing.AllocsPerRun over whole submit-to-result cycles, which counts
// every goroutine the engine runs.
func fusionCell(db *tpch.DB, name string, spec engine.QuerySpec, workers int) (FusionResult, error) {
	type fusionArm struct {
		e    *engine.Engine
		last *storage.Batch
		best float64
	}
	newArm := func(noFusion bool) (*fusionArm, error) {
		e, err := engine.New(engine.Options{Workers: workers, NoFusion: noFusion})
		if err != nil {
			return nil, err
		}
		return &fusionArm{e: e}, nil
	}
	runOne := func(a *fusionArm) error {
		h, err := a.e.Submit(spec, nil)
		if err != nil {
			return err
		}
		a.last, err = h.Wait()
		return err
	}
	fused, err := newArm(false)
	if err != nil {
		return FusionResult{}, err
	}
	defer fused.e.Close()
	staged, err := newArm(true)
	if err != nil {
		return FusionResult{}, err
	}
	defer staged.e.Close()
	arms := []*fusionArm{fused, staged}
	for _, a := range arms {
		if err := runOne(a); err != nil { // warm the compile memo off the clock
			return FusionResult{}, err
		}
	}
	const submits = 30
	for trial := 0; trial < 5; trial++ {
		for _, a := range arms {
			start := time.Now()
			for i := 0; i < submits; i++ {
				if err := runOne(a); err != nil {
					return FusionResult{}, err
				}
			}
			if qpm := float64(submits) / time.Since(start).Minutes(); qpm > a.best {
				a.best = qpm
			}
		}
	}
	allocs := func(a *fusionArm) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := runOne(a); err != nil {
				panic(err)
			}
		})
	}
	return FusionResult{
		Plan:         name,
		FusedQPM:     fused.best,
		StagedQPM:    staged.best,
		FusedAllocs:  allocs(fused),
		StagedAllocs: allocs(staged),
		Identical:    renderBatch(fused.last) == renderBatch(staged.last),
	}, nil
}

// fusionIdentityCell runs every benchmark query and every family variant
// fused on the multi-worker engine and compares each result byte-for-byte
// against the unfused single-worker reference. An unshared submission drains
// its pages in deterministic order on either topology, so any divergence is
// a fusion bug, not float jitter.
func fusionIdentityCell(db *tpch.DB, workers int) (FusionIdentityResult, error) {
	var specs []engine.QuerySpec
	for _, q := range tpch.AllQueries {
		specs = append(specs, tpch.MustEngineSpec(q, db, 0))
	}
	for v := 0; v < tpch.Q6FamilyVariants; v++ {
		specs = append(specs, tpch.Q6FamilySpec(db, 0, v))
	}
	for v := 0; v < tpch.Q4FamilyVariants; v++ {
		specs = append(specs, tpch.Q4FamilySpec(db, 0, v))
	}
	for v := 0; v < tpch.Q13FamilyVariants; v++ {
		specs = append(specs, tpch.Q13FamilySpec(db, 0, v))
	}
	res := FusionIdentityResult{Plans: len(specs), Identical: true}
	fused, err := engine.New(engine.Options{Workers: workers})
	if err != nil {
		return res, err
	}
	defer fused.Close()
	ref, err := engine.New(engine.Options{Workers: 1, NoFusion: true})
	if err != nil {
		return res, err
	}
	defer ref.Close()
	runOn := func(e *engine.Engine, spec engine.QuerySpec) (*storage.Batch, error) {
		h, err := e.Submit(spec, nil)
		if err != nil {
			return nil, err
		}
		return h.Wait()
	}
	for _, spec := range specs {
		got, err := runOn(fused, spec)
		if err != nil {
			return res, fmt.Errorf("fusion identity %s: %w", spec.Signature, err)
		}
		want, err := runOn(ref, spec)
		if err != nil {
			return res, fmt.Errorf("fusion identity reference %s: %w", spec.Signature, err)
		}
		if renderBatch(got) != renderBatch(want) {
			res.Identical = false
		}
	}
	return res, nil
}

// shardCell measures one shard ablation cell: two full rotations of every
// scatter-gather family variant, submitted to a paused k-shard cluster and
// released at once — the same batch shape on every topology, so the cells
// differ only in how the cluster decomposes the work. The capacity metric
// reads each shard's profiled busy time: the cluster is done no sooner than
// its busiest shard, so completions / max_shard(Σ busy / workers) is the
// throughput a machine with one core per emulated worker would sustain,
// independent of how many cores this host actually has.
func shardCell(db *tpch.DB, shards int, polName string, workers int) (ShardAblationResult, error) {
	sdb, err := tpch.NewShardedDB(db, shards)
	if err != nil {
		return ShardAblationResult{}, err
	}
	plans, err := tpch.CompileShardPlans(sdb, 0)
	if err != nil {
		return ShardAblationResult{}, err
	}
	pol, inflight, err := policy.ByName(polName, core.NewEnv(float64(workers*shards)), workers)
	if err != nil {
		return ShardAblationResult{}, err
	}
	c, err := engine.NewCluster(shards, engine.Options{
		Workers:         workers,
		FanOut:          engine.FanOutShare,
		InflightSharing: inflight,
		Profile:         true,
		StartPaused:     true,
	})
	if err != nil {
		return ShardAblationResult{}, err
	}
	defer c.Close()

	type sub struct {
		fam     string
		variant int
		h       *engine.Handle
	}
	var subs []sub
	const reps = 2
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, f := range tpch.ShardFamilies() {
			for v := 0; v < f.Variants; v++ {
				h, err := c.Submit(plans[fmt.Sprintf("%s/%d", f.Name, v)], policy.ForEngine(pol))
				if err != nil {
					return ShardAblationResult{}, err
				}
				subs = append(subs, sub{f.Name, v, h})
			}
		}
	}
	c.Start()
	results := make([]*storage.Batch, len(subs))
	for i, s := range subs {
		if results[i], err = s.h.Wait(); err != nil {
			return ShardAblationResult{}, fmt.Errorf("%s/%d: %w", s.fam, s.variant, err)
		}
	}
	wall := time.Since(start)
	c.Drain()

	// Every (family, variant) result against the single-engine reference.
	identical := true
	checked := map[string]bool{}
	for i, s := range subs {
		key := fmt.Sprintf("%s/%d", s.fam, s.variant)
		if checked[key] {
			continue
		}
		checked[key] = true
		f, _ := tpch.ShardFamilyByName(s.fam)
		want, err := f.Reference(db, s.variant)
		if err != nil {
			return ShardAblationResult{}, err
		}
		if !batchesMatch(s.fam, results[i], want) {
			identical = false
		}
	}

	var makespan time.Duration
	for i := 0; i < c.NumShards(); i++ {
		var busy time.Duration
		for _, d := range c.Shard(i).BusyTimes() {
			busy += d
		}
		if per := busy / time.Duration(workers); per > makespan {
			makespan = per
		}
	}
	cell := ShardAblationResult{
		Shards:        shards,
		Policy:        polName,
		Completions:   len(subs),
		QPMWall:       float64(len(subs)) / wall.Minutes(),
		Scatters:      c.Scatters(),
		Routed:        c.Routed(),
		HashBuilds:    c.HashBuilds(),
		BusJoins:      c.BusJoins(),
		CompileMisses: c.CompileMisses(),
		CompileHits:   c.CompileHits(),
		Identical:     identical,
	}
	if makespan > 0 {
		cell.QPMCapacity = float64(len(subs)) / makespan.Minutes()
	}
	return cell, nil
}

// shardOneBuildCell asserts the cross-shard bus contract with counters: one
// Q4 and one Q13 scattered over four paused shards. Both families replicate
// their build side, so all four shard submissions of each family land before
// any work runs, one shard anchors each family's build, and the other three
// attach through the bus — exactly one hash build per family cluster-wide.
func shardOneBuildCell(db *tpch.DB, workers int) (ShardOneBuildResult, error) {
	const shards = 4
	sdb, err := tpch.NewShardedDB(db, shards)
	if err != nil {
		return ShardOneBuildResult{}, err
	}
	c, err := engine.NewCluster(shards, engine.Options{Workers: workers, StartPaused: true})
	if err != nil {
		return ShardOneBuildResult{}, err
	}
	defer c.Close()
	plans := []struct {
		fam  string
		plan func(pageRows, variant int) (engine.ShardPlan, error)
		ref  func(*tpch.DB, int) (*storage.Batch, error)
	}{
		{"Q4", sdb.Q4FamilyShardPlan, tpch.Q4FamilyReference},
		{"Q13", sdb.Q13FamilyShardPlan, tpch.Q13FamilyReference},
	}
	var handles []*engine.Handle
	for _, p := range plans {
		plan, err := p.plan(0, 0)
		if err != nil {
			return ShardOneBuildResult{}, err
		}
		h, err := c.Submit(plan, policy.Always{})
		if err != nil {
			return ShardOneBuildResult{}, err
		}
		handles = append(handles, h)
	}
	// Every shard submission landed while the cluster is paused; the bus
	// joins are already decided before any build runs.
	res := ShardOneBuildResult{Shards: shards, Families: len(plans), BusJoins: c.BusJoins()}
	c.Start()
	res.Identical = true
	for i, p := range plans {
		got, err := handles[i].Wait()
		if err != nil {
			return res, fmt.Errorf("%s: %w", p.fam, err)
		}
		want, err := p.ref(db, 0)
		if err != nil {
			return res, err
		}
		if renderBatch(got) != renderBatch(want) {
			res.Identical = false
		}
	}
	res.HashBuilds = c.HashBuilds()
	c.Drain()
	return res, nil
}

// batchesMatch compares a scattered result against the reference:
// byte-identical for the integer-count families (Q4, Q13), and within
// summation-order float jitter (1e-9 relative) for the sum-heavy ones.
func batchesMatch(family string, got, want *storage.Batch) bool {
	switch family {
	case "Q4", "Q13":
		return renderBatch(got) == renderBatch(want)
	}
	if got.Len() != want.Len() {
		return false
	}
	for c, col := range want.Schema.Cols {
		for i := 0; i < want.Len(); i++ {
			switch col.Type {
			case storage.Int64, storage.Date:
				if got.Vecs[c].I64[i] != want.Vecs[c].I64[i] {
					return false
				}
			case storage.String:
				if got.Vecs[c].Str[i] != want.Vecs[c].Str[i] {
					return false
				}
			case storage.Float64:
				g, w := got.Vecs[c].F64[i], want.Vecs[c].F64[i]
				if diff := math.Abs(g - w); diff > 1e-9*math.Max(1, math.Abs(w)) {
					return false
				}
			}
		}
	}
	return true
}

// openLoopSweep runs the open-loop ablation: one live server per policy, all
// fed Poisson arrivals on the same seed at a rate calibrated (on the first,
// never-share server) to ~3× the measured single-query capacity — far enough
// past saturation that queues fill and admission control must queue and shed
// rather than hang. Sharing policies face the identical offered schedule, so
// their lower tails are attributable to sharing, not luck.
func openLoopSweep(db *tpch.DB, workers, arrivals int, seed uint64) ([]OpenLoopPolicyResult, error) {
	var out []OpenLoopPolicyResult
	var rate float64
	for _, name := range []string{"never", "model", "subplan"} {
		pol, inflight, err := policy.ByName(name, core.NewEnv(float64(workers)), workers)
		if err != nil {
			return nil, err
		}
		srv, err := server.New(server.Config{
			DB:         db,
			Engine:     engine.Options{Workers: workers, FanOut: engine.FanOutShare, InflightSharing: inflight},
			Policy:     policy.ForEngine(pol),
			Window:     workers,     // saturation point ≈ the hardware
			QueueLimit: 4 * workers, // small backlog: overflow must shed
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown()
			return nil, err
		}
		go srv.Serve(ln)
		addr := ln.Addr().String()
		if rate == 0 {
			if rate, err = calibrateRate(addr, workers); err != nil {
				srv.Shutdown()
				return nil, err
			}
		}
		res, err := workload.RunOpenLoop(workload.OpenLoopConfig{
			Addr:        addr,
			Arrivals:    workload.NewPoisson(rate, seed),
			MaxArrivals: arrivals,
			Conns:       4,
		})
		srv.Shutdown()
		if err != nil {
			return nil, fmt.Errorf("open loop %s: %w", name, err)
		}
		if res.Errors != 0 || res.Lost != 0 {
			return nil, fmt.Errorf("open loop %s: %d errors, %d lost of %d offered", name, res.Errors, res.Lost, res.Offered)
		}
		if res.OK+res.Shed != res.Offered {
			return nil, fmt.Errorf("open loop %s: %d ok + %d shed != %d offered — an arrival went unanswered", name, res.OK, res.Shed, res.Offered)
		}
		if name == "never" && res.Shed == 0 {
			return nil, fmt.Errorf("open loop never: no sheds at %.0f/s over a %d-slot queue — admission control never acted", rate, 4*workers)
		}
		out = append(out, OpenLoopPolicyResult{
			Policy:     name,
			RatePerSec: rate,
			Offered:    res.Offered,
			OK:         res.OK,
			Shed:       res.Shed,
			QueuedOK:   res.QueuedOK,
			SharedOK:   res.SharedOK,
			P50MS:      float64(res.Latency.P50()) / float64(time.Millisecond),
			P95MS:      float64(res.Latency.P95()) / float64(time.Millisecond),
			P99MS:      float64(res.Latency.P99()) / float64(time.Millisecond),
		})
	}
	return out, nil
}

// calibrateRate measures the mean single-query service time over one variant
// of each family on an otherwise idle server, and returns an offered rate of
// ~3× the corresponding capacity (workers / mean service). Calibrating on
// the live machine keeps "above saturation" true on fast and slow hosts
// alike.
func calibrateRate(addr string, workers int) (float64, error) {
	c, err := workload.DialServer(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	families := []string{"Q1", "Q6", "Q4", "Q13"}
	start := time.Now()
	for _, f := range families {
		resp, err := c.Do(server.Request{Family: f})
		if err != nil {
			return 0, err
		}
		if resp.Status != server.StatusOK {
			return 0, fmt.Errorf("calibration query %s: %s (%s)", f, resp.Status, resp.Error)
		}
	}
	service := time.Since(start) / time.Duration(len(families))
	if service <= 0 {
		service = time.Millisecond
	}
	return 3 * float64(workers) / service.Seconds(), nil
}

// cacheCell measures one cache ablation cell: two bursts of m Q4-family
// variants on an engine retaining artifacts under the given budget and
// keep-alive window, separated by an idle gap. Each burst drains completely
// before the gap, so only the cache can carry the hash build across it.
func cacheCell(db *tpch.DB, m int, gap, ttl time.Duration, budget int64, workers int) (CacheAblationResult, error) {
	cache := artifact.New(artifact.Config{BudgetBytes: budget, TTL: ttl})
	e, err := engine.New(engine.Options{Workers: workers, Cache: cache})
	if err != nil {
		return CacheAblationResult{}, err
	}
	defer e.Close()
	burst := func() (float64, error) {
		handles := make([]*engine.Handle, m)
		start := time.Now()
		for i := range handles {
			h, err := e.Submit(tpch.Q4FamilySpec(db, 0, i%tpch.Q4FamilyVariants), policy.Always{})
			if err != nil {
				return 0, err
			}
			handles[i] = h
		}
		for _, h := range handles {
			if _, err := h.Wait(); err != nil {
				return 0, err
			}
		}
		return float64(m) / time.Since(start).Minutes(), nil
	}
	coldQPM, err := burst()
	if err != nil {
		return CacheAblationResult{}, err
	}
	coldBuilds := e.HashBuilds()
	time.Sleep(gap)
	warmQPM, err := burst()
	if err != nil {
		return CacheAblationResult{}, err
	}
	return CacheAblationResult{
		IdleGapMS:   gap.Milliseconds(),
		TTLMS:       ttl.Milliseconds(),
		BudgetBytes: budget,
		QPMCold:     coldQPM,
		QPMWarm:     warmQPM,
		ColdBuilds:  coldBuilds,
		WarmBuilds:  e.HashBuilds() - coldBuilds,
		CacheHits:   e.CacheHits(),
		CacheBytes:  e.CacheBytes(),
	}, nil
}

// buildShareCell measures one build-share batch: m different Q4-family
// variants submitted to a paused engine under always-share (the anchor's
// group publishes the build state; every other variant attaches to it),
// against the same batch run with sharing disabled.
func buildShareCell(db *tpch.DB, m int, buildFrac float64, workers int) (BuildShareResult, error) {
	run := func(pol engine.SharePolicy) (float64, int64, error) {
		e, err := engine.New(engine.Options{Workers: workers, StartPaused: true})
		if err != nil {
			return 0, 0, err
		}
		defer e.Close()
		handles := make([]*engine.Handle, m)
		start := time.Now()
		for i := range handles {
			spec := tpch.Q4FamilySpecSized(db, 0, i%tpch.Q4FamilyVariants, buildFrac)
			h, err := e.Submit(spec, pol)
			if err != nil {
				return 0, 0, err
			}
			handles[i] = h
		}
		e.Start()
		for _, h := range handles {
			if _, err := h.Wait(); err != nil {
				return 0, 0, err
			}
		}
		return float64(m) / time.Since(start).Minutes(), e.HashBuilds(), nil
	}
	sharedQPM, builds, err := run(policy.Always{})
	if err != nil {
		return BuildShareResult{}, err
	}
	aloneQPM, _, err := run(nil)
	if err != nil {
		return BuildShareResult{}, err
	}
	return BuildShareResult{
		Probes:           m,
		BuildFrac:        buildFrac,
		QueriesPerMinute: sharedQPM,
		AloneQPM:         aloneQPM,
		HashBuilds:       builds,
	}, nil
}

// hotPathCell measures the hot-path ablation: the compile step in isolation
// (cold Compile vs the warm Valid+Matches guard), whole submits cold (no
// PlanKey, recanonicalizing every arrival) vs warm (memoized artifact),
// pre-sized vs unsized hash-build construction, and pooled vs fresh
// selection vectors — then cross-checks that every arm computed the same
// answer.
func hotPathCell(db *tpch.DB, workers int) (HotPathResult, error) {
	var res HotPathResult
	spec := tpch.MustEngineSpec(tpch.Q4, db, 0)

	// The compile step alone. The warm arm runs exactly the guard the
	// engine's memo runs on a hit: epoch validation plus the structural
	// PlanKey-misuse check.
	const iters = 5000
	var sink *engine.Compiled
	start := time.Now()
	for i := 0; i < iters; i++ {
		sink = engine.Compile(spec)
	}
	res.ColdCompileNS = float64(time.Since(start).Nanoseconds()) / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		if !sink.Valid() || !sink.Matches(spec) {
			return res, fmt.Errorf("hot path: warm guard rejected an unchanged spec")
		}
	}
	res.WarmCheckNS = float64(time.Since(start).Nanoseconds()) / iters
	if res.WarmCheckNS > 0 {
		res.CompileSpeedupX = res.ColdCompileNS / res.WarmCheckNS
	}

	// Whole submits, sequentially drained so the arms differ only in
	// canonicalization work: cold strips the PlanKey (every submit
	// recompiles), warm keeps it (every submit after the first hits).
	const submits = 24
	submitArm := func(planKey string) (float64, int64, *storage.Batch, error) {
		e, err := engine.New(engine.Options{Workers: workers})
		if err != nil {
			return 0, 0, nil, err
		}
		defer e.Close()
		s := spec
		s.PlanKey = planKey
		var last *storage.Batch
		start := time.Now()
		for i := 0; i < submits; i++ {
			h, err := e.Submit(s, nil)
			if err != nil {
				return 0, 0, nil, err
			}
			if last, err = h.Wait(); err != nil {
				return 0, 0, nil, err
			}
		}
		return float64(submits) / time.Since(start).Minutes(), e.CompileHits(), last, nil
	}
	coldQPM, _, coldRes, err := submitArm("")
	if err != nil {
		return res, err
	}
	warmQPM, warmHits, warmRes, err := submitArm(spec.PlanKey)
	if err != nil {
		return res, err
	}
	res.ColdSubmitQPM, res.WarmSubmitQPM, res.WarmCompileHits = coldQPM, warmQPM, warmHits
	if warmHits != submits-1 {
		return res, fmt.Errorf("hot path: warm arm hit the compile cache %d times over %d submits, want %d",
			warmHits, submits, submits-1)
	}

	// Pre-sized vs unsized hash-build construction over the real Q4 build
	// input, pushed page by page the way the engine feeds it.
	lineSchema := storage.MustSchema(storage.Column{Name: "l_orderkey", Type: storage.Int64})
	buildRows := storage.NewBatch(lineSchema, 0)
	sc, err := relop.NewScan(db.Lineitem, tpch.Q4LineitemPred(), []string{"l_orderkey"}, 0, func(b *storage.Batch) error {
		buildRows.AppendBatch(b)
		return nil
	})
	if err != nil {
		return res, err
	}
	if err := sc.Run(); err != nil {
		return res, err
	}
	hint := tpch.EstimateQ4BuildRows(db)
	// Sliced once, outside the measured runs: what is counted is the build's
	// own allocations (row storage, key ids, key table, index arrays), part
	// of which the hint pre-sizes.
	const page = 1024
	var buildPages []*storage.Batch
	for lo := 0; lo < buildRows.Len(); lo += page {
		buildPages = append(buildPages, buildRows.Slice(lo, min(lo+page, buildRows.Len())))
	}
	runBuild := func(mk func() (*relop.JoinBuild, error)) func() {
		return func() {
			jb, err := mk()
			if err != nil {
				panic(err)
			}
			for _, p := range buildPages {
				if err := jb.Push(p); err != nil {
					panic(err)
				}
			}
			if err := jb.Finish(); err != nil {
				panic(err)
			}
		}
	}
	res.SizedBuildAllocs = testing.AllocsPerRun(20, runBuild(func() (*relop.JoinBuild, error) {
		return relop.NewJoinBuildSized(lineSchema, "l_orderkey", hint)
	}))
	res.UnsizedBuildAllocs = testing.AllocsPerRun(20, runBuild(func() (*relop.JoinBuild, error) {
		return relop.NewJoinBuild(lineSchema, "l_orderkey")
	}))

	// Pooled vs fresh selection vectors over the Q6 page filter.
	pred := tpch.Q6Pred()
	data := db.Lineitem.Data()
	pageRows := storage.RowsPerPage(db.Lineitem.Schema(), storage.DefaultPageSize)
	filterPages := func(reuse bool) func() {
		return func() {
			var buf []int
			for lo := 0; lo < data.Len(); lo += pageRows {
				hi := lo + pageRows
				if hi > data.Len() {
					hi = data.Len()
				}
				w := data.Slice(lo, hi)
				cand := []int(nil)
				if reuse {
					cand = relop.FillSel(buf, w.Len())
				}
				sel, err := pred.Filter(w, cand)
				if err != nil {
					panic(err)
				}
				if reuse {
					buf = sel
				}
			}
		}
	}
	res.PooledSelAllocs = testing.AllocsPerRun(20, filterPages(true))
	res.FreshSelAllocs = testing.AllocsPerRun(20, filterPages(false))

	// Byte-identical results across arms: cold vs warm submits above, and
	// the hinted vs NoHints plan family on fresh engines.
	sizedRes, err := runOnce(tpch.Q4FamilySpec(db, 0, 0), workers)
	if err != nil {
		return res, err
	}
	unsizedRes, err := runOnce(tpch.Q4FamilySpecNoHints(db, 0, 0), workers)
	if err != nil {
		return res, err
	}
	res.ResultsIdentical = renderBatch(coldRes) == renderBatch(warmRes) &&
		renderBatch(sizedRes) == renderBatch(unsizedRes)
	return res, nil
}

// runOnce executes one spec on a fresh engine and returns its result.
func runOnce(spec engine.QuerySpec, workers int) (*storage.Batch, error) {
	e, err := engine.New(engine.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	h, err := e.Submit(spec, nil)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

// renderBatch renders a batch row by row in emitted order, so equality means
// byte-identical results rather than just equal row sets.
func renderBatch(b *storage.Batch) string {
	out := ""
	for i := 0; i < b.Len(); i++ {
		for c, col := range b.Schema.Cols {
			switch col.Type {
			case storage.Int64, storage.Date:
				out += fmt.Sprintf("|%d", b.Vecs[c].I64[i])
			case storage.Float64:
				out += fmt.Sprintf("|%.9f", b.Vecs[c].F64[i])
			case storage.String:
				out += "|" + b.Vecs[c].Str[i]
			}
		}
		out += "\n"
	}
	return out
}

// pivotLevelCell measures one batch of m identical Q6-family queries
// sharing at the pinned pivot level on a paused engine.
func pivotLevelCell(db *tpch.DB, level, m, workers int) (float64, error) {
	e, err := engine.New(engine.Options{Workers: workers, StartPaused: true})
	if err != nil {
		return 0, err
	}
	defer e.Close()
	spec := tpch.Q6FamilySpec(db, 0, 0)
	spec.Pivot = level
	spec.Pivots = nil
	handles := make([]*engine.Handle, m)
	start := time.Now()
	for i := range handles {
		h, err := e.Submit(spec, policy.Always{})
		if err != nil {
			return 0, err
		}
		handles[i] = h
	}
	e.Start()
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			return 0, err
		}
	}
	return float64(m) / time.Since(start).Minutes(), nil
}
