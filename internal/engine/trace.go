package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file wires the telemetry layer (internal/obs) into the engine: one
// lifecycle trace per submitted query, a decision record stamped at the
// moment the submit path commits to an execution regime, and the
// model-accuracy audit pairing each decision's predicted benefit with the
// measured outcome at completion.
//
// Cost discipline: span events append under the trace's own mutex and occur
// a handful of times per query; the per-quantum accounting is one atomic
// add (traceStep), with time.Now() only on Blocked transitions.

// traceCap is how many recent per-query lifecycle traces each engine
// retains: span events from submit through pivot choice to completion, plus
// scheduler quanta and queue-wait time, served by the server's trace op.
const traceCap = 256

// Tracer returns the engine's per-query lifecycle tracer.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Trace returns the handle's lifecycle trace.
func (h *Handle) Trace() *obs.QueryTrace { return h.trace }

// Decision returns the submit-time decision record stamped on the handle:
// the regime the query was committed to and the model's predicted benefit.
func (h *Handle) Decision() core.DecisionRecord { return h.decision }

// traceStep wraps a task's step function with per-quantum accounting on the
// owning query's trace: one atomic add per quantum, and blocked-time
// measured across Blocked→run transitions. The closure's blockedAt is
// task-local state — a task steps on one worker at a time — so it needs no
// synchronization.
func traceStep(t *obs.QueryTrace, step func(*Task) Status) func(*Task) Status {
	var blockedAt time.Time
	return func(tk *Task) Status {
		if !blockedAt.IsZero() {
			t.AddWait(time.Since(blockedAt))
			blockedAt = time.Time{}
		}
		t.IncQuanta()
		st := step(tk)
		if st == Blocked {
			blockedAt = time.Now()
		}
		return st
	}
}

// stampDecision records the submit-time decision on the handle. It must run
// before any of the query's tasks spawn (the completion path reads the
// record without a lock; pre-spawn stamping gives the ordering for free). A
// failed attach attempt spawns nothing, so restamping on the next candidate
// is safe.
func (e *Engine) stampDecision(h *Handle, kind string, pivot, m int, q core.Query, z, speedup float64) {
	h.decision = core.DecisionRecord{
		Kind:             kind,
		Pivot:            pivot,
		GroupSize:        m,
		PredictedSpeedup: speedup,
		PredictedZ:       z,
		UPrime:           q.UPrime(),
	}
}

// emitDecision appends the pivot-choice span (with the model's predicted
// Z/speedup) plus the anchor/attach event, once the stamped decision has
// actually committed.
func emitDecision(h *Handle, role, detail string) {
	if h.trace == nil {
		return
	}
	d := h.decision
	h.trace.EventPredicted("pivot",
		fmt.Sprintf("%s pivot=%d m=%d z=%.3g", d.Kind, d.Pivot, d.GroupSize, d.PredictedZ),
		d.PredictedSpeedup)
	h.trace.Event(role, detail)
}

// shareBenefit prices pivot-level sharing for the decision record: the
// sharing margin Z and the throughput ratio shared/unshared at group size m.
func (e *Engine) shareBenefit(q core.Query, m int) (z, speedup float64) {
	z = core.Z(q, m, e.env)
	speedup = 1
	if us := core.UnsharedX(q, m, e.env); us > 0 {
		speedup = core.SharedX(q, m, e.env) / us
	}
	return z, speedup
}

// buildBenefit prices build-side sharing the same way.
func (e *Engine) buildBenefit(q core.Query, m int) (z, speedup float64) {
	return core.BuildShareZ(q, m, e.env), core.BuildShareSpeedup(q, m, e.env)
}

// calibEWMAAlpha is the weight of a new run-alone sample in the wall-per-u′
// calibration — slow enough to ride out scheduling noise, fast enough to
// track a load shift within tens of completions.
const calibEWMAAlpha = 0.2

// observeCompletion closes out a query's telemetry: the completion span
// (with the measured sharing benefit next to the prediction) and the audit
// observation. Queries that ran effectively alone — kind "alone", or an
// anchor whose group never grew — also feed the wall-time-per-u′
// calibration that converts the model's alone estimate into an expected
// wall time for everyone else.
func (e *Engine) observeCompletion(h *Handle, err error, finalSize int, wall time.Duration) {
	if err != nil {
		h.trace.Event("complete", "error: "+err.Error())
		return
	}
	d := h.decision
	aloneLike := d.Kind == "alone" || (d.Kind == "anchor" && finalSize <= 1)
	e.mu.Lock()
	if aloneLike && d.UPrime > 0 && wall > 0 {
		sample := float64(wall) / d.UPrime
		if e.calibNS == 0 {
			e.calibNS = sample
		} else {
			e.calibNS += calibEWMAAlpha * (sample - e.calibNS)
		}
	}
	calib := e.calibNS
	e.mu.Unlock()

	var measured float64
	if calib > 0 && d.UPrime > 0 && wall > 0 {
		// Expected alone wall time over measured wall time: >1 means the
		// chosen regime beat running alone.
		measured = calib * d.UPrime / float64(wall)
	}
	pred := d.PredictedSpeedup
	if pred <= 0 {
		pred = 1
	}
	kind := d.Kind
	if kind == "" {
		kind = "alone"
	}
	if measured > 0 {
		e.audit.Observe(kind, pred, measured)
	}
	h.trace.EventMeasured("complete",
		fmt.Sprintf("wall=%s m=%d", wall.Round(time.Microsecond), finalSize),
		pred, measured)
}
