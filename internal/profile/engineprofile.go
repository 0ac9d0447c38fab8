package profile

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
)

// Engine-based estimation: the online counterpart of MeasureSim. The paper
// estimates parameters offline but notes "we anticipate no significant
// barriers to online estimation"; this file is that extension. The live
// engine is profiled at several sharing degrees and the same least-squares
// fit recovers the coefficients — in wall-clock nanoseconds per unit of
// forward progress, an arbitrary but consistent scale: the model's sharing
// decisions depend only on work *ratios*, which uniform scaling preserves.

// EngineRuns configures engine profiling.
type EngineRuns struct {
	// Options configures the engines used for the profiled runs (Workers,
	// QueueCap, ...). Profile and StartPaused are forced on.
	Options engine.Options
	// Spec is the query to profile.
	Spec engine.QuerySpec
	// Structure is the query's plan topology; work coefficients are ignored.
	Structure core.Plan
	// NodeNames maps engine node names (spec stage names) to plan node
	// names in Structure.
	NodeNames map[string]string
	// Degrees are the sharing degrees to profile (≥ 2 distinct values;
	// degree 1 runs unshared).
	Degrees []int
	// Repeats runs each degree this many times (default 1) and keeps the
	// run with the least total busy time. Busy time is wall time inside a
	// step, and descheduling or a GC pause only ever adds to it, so the
	// least-disturbed run is the best estimate of the work. The whole run is
	// kept, so every node's value in a measurement comes from one round.
	Repeats int
}

// MeasureEngine profiles the query on fresh engines, one per run. Each run
// submits exactly m queries into one sharing group (the engine starts
// paused, so the group cannot seal before every member joins), executes
// them, and reads per-node busy time — one group round.
func MeasureEngine(cfg EngineRuns) ([]Measurement, error) {
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	var out []Measurement
	for _, m := range cfg.Degrees {
		if m < 1 {
			return nil, fmt.Errorf("profile: invalid sharing degree %d", m)
		}
		var best map[string]float64
		bestTotal := 0.0
		for r := 0; r < cfg.Repeats; r++ {
			busy, err := oneEngineRound(cfg, m)
			if err != nil {
				return nil, err
			}
			total := 0.0
			for _, v := range busy {
				total += v
			}
			if best == nil || total < bestTotal {
				best, bestTotal = busy, total
			}
		}
		out = append(out, Measurement{M: m, BusyPerRound: best})
	}
	return out, nil
}

func oneEngineRound(cfg EngineRuns, m int) (map[string]float64, error) {
	opts := cfg.Options
	opts.Profile = true
	opts.StartPaused = true
	opts.FanOut = engine.FanOutClone
	e, err := engine.New(opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	var pol engine.SharePolicy
	if m > 1 {
		pol = policy.Always{}
	}
	handles := make([]*engine.Handle, m)
	for i := range handles {
		h, err := e.Submit(cfg.Spec, pol)
		if err != nil {
			return nil, err
		}
		handles[i] = h
	}
	if m > 1 {
		if got := e.GroupSize(cfg.Spec.Signature); got != m {
			return nil, fmt.Errorf("profile: expected one group of %d, got size %d", m, got)
		}
	}
	e.Start()
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			return nil, err
		}
	}
	busy := make(map[string]float64)
	for name, d := range e.BusyTimes() {
		planName, ok := cfg.NodeNames[name]
		if !ok {
			continue
		}
		busy[planName] += float64(d.Nanoseconds())
	}
	return busy, nil
}

// EstimateEngine is the end-to-end online pipeline: profile the live engine
// and fit model coefficients against the plan structure.
func EstimateEngine(cfg EngineRuns, pivotName string) (core.Query, error) {
	meas, err := MeasureEngine(cfg)
	if err != nil {
		return core.Query{}, err
	}
	return Estimate(stripWork(cfg.Structure), pivotName, meas)
}
