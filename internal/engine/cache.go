package engine

import (
	"time"

	"repro/internal/core"
	"repro/internal/relop"
	"repro/internal/storage"
)

// This file wires the shared-artifact keep-alive cache (internal/artifact)
// into the engine. The work exchange owns shared artifacts while they are in
// flight; the cache owns them across the idle gap after the last consumer
// leaves. Two artifact kinds flow through it:
//
//   - sealed hash-join build states: when a build state retires at its last
//     release, the exchange's hand-off hook passes the sealed
//     relop.HashTable here instead of dropping it, keyed by the build
//     subtree's canonical fingerprint under the namespace of the table's
//     form (a key-set table never serves a probe that reads build rows, see
//     fingerprint.go), and charged its FootprintBytes: a Semi or Anti build
//     retains its distinct keys only. A later arrival whose build candidate
//     fingerprint-matches anchors a build group over the retained table
//     (newBuildGroupLocked with a retained origin): the table is already
//     sealed, the build subtree never runs, and the arrival registers as a
//     late attach with zero build work — one hash build amortized across
//     bursts, not just within one. A mixed group's split join is served the
//     same way;
//   - completed pivot result runs: a query whose spec offers a root-level
//     pivot candidate has a canonical fingerprint covering its entire plan,
//     so its finished result batch is itself a shareable artifact. The sink
//     offers it to the cache at completion, and a fingerprint-matching
//     arrival within the keep-alive window is served the retained pages
//     directly, bypassing execution entirely.
//
// Both kinds are epoch-guarded: the artifact records the invalidation epochs
// of its source tables at build time (storage.Table.Epoch — bumped by any
// mutation-path publish), and a lookup whose current epoch differs drops the
// stale artifact instead of serving it. Admission and eviction are the
// model's retain-vs-evict decision (core.ShouldRetain / core.RetainScore)
// under the cache's byte budget.

// specEpochAt returns the combined invalidation epoch of every base table
// the subtree rooted at pivot scans: the sum of the tables' epochs. Epochs
// only advance, so any mutation to any source table changes the sum and a
// cached artifact keyed on the old value goes stale.
func specEpochAt(spec QuerySpec, pivot int) uint64 {
	mask := spec.SubtreeMask(pivot)
	var epoch uint64
	for i, in := range mask {
		if in && spec.Nodes[i].Scan != nil {
			epoch += spec.Nodes[i].Scan.Table.Epoch()
		}
	}
	return epoch
}

// resultCacheOption reports whether the spec's completed result is a
// cacheable artifact: it must offer its root node as a non-build pivot
// candidate (or declare the root as its only pivot), so the canonical
// fingerprint covers the whole plan and fingerprint-equality implies
// result-equality. It returns the cache key (the root subtree fingerprint
// under a distinct namespace — a result run is a different contract than a
// page stream or a build state) and the model compiled at the root, whose
// rebuild cost is the whole execution a hit avoids.
func resultCacheOption(spec QuerySpec) (key string, model core.Query, ok bool) {
	root := len(spec.Nodes) - 1
	for _, opt := range spec.Pivots {
		if !opt.Build && opt.Pivot == root {
			return shareKeyAt(spec, root) + "!result", opt.Model, true
		}
	}
	if len(spec.Pivots) == 0 && spec.Pivot == root {
		return shareKeyAt(spec, root) + "!result", spec.Model, true
	}
	return "", core.Query{}, false
}

// lookupCachedResult consults the keep-alive cache for a completed result
// run matching the handle's result key at the current epoch.
func (e *Engine) lookupCachedResult(h *Handle) (*storage.Batch, bool) {
	if e.cache == nil || h.resultKey == "" {
		return nil, false
	}
	v, ok := e.cache.Get(h.resultKey, h.resultEpoch)
	if !ok {
		return nil, false
	}
	res, ok := v.(*storage.Batch)
	return res, ok
}

// serveResult completes a handle from a cached result run: the retained
// pages are cloned (the cached artifact stays immutable), the handle
// resolves as a completed query, and the completion callback runs exactly
// as it would from an engine worker. It runs on its own goroutine so a
// closed-loop resubmission from the callback re-enters Submit without any
// engine lock held.
func (e *Engine) serveResult(h *Handle, res *storage.Batch) {
	// A cache-served result shares with the departed group that produced the
	// artifact — size 2 for the audit's purposes. It was never counted in
	// Active.
	go func() { e.resolve(h, res.Clone(), nil, 2, false) }()
}

// captureResult offers a successful query's result batch to the keep-alive
// cache. The admission test runs on the original's size first, so a result
// the model or the budget would refuse is never cloned; an admitted one is
// cloned before retention, since the caller owns the original and may
// mutate it.
func (e *Engine) captureResult(h *Handle, res *storage.Batch) {
	if e.cache == nil || h.resultKey == "" || res == nil {
		return
	}
	bytes := int64(res.EstimatedBytes())
	if !core.ShouldRetain(h.resultModel, e.cache.RearrivalFor(h.resultKey), bytes, e.cache.Budget()) {
		return
	}
	e.cache.Put(h.resultKey, res.Clone(), bytes, h.resultModel, h.resultEpoch)
}

// lookupCachedTable consults the keep-alive cache for a sealed hash table
// under the given build key at the given source-table epoch (both already
// computed by the caller — the submit path holds the key for its joinable
// probe, so recomputing the canonical form here would double the
// fingerprint work per submit).
func (e *Engine) lookupCachedTable(key string, epoch uint64) (*relop.HashTable, bool) {
	if e.cache == nil {
		return nil, false
	}
	v, ok := e.cache.Get(key, epoch)
	if !ok {
		return nil, false
	}
	tbl, ok := v.(*relop.HashTable)
	return tbl, ok
}

// sweepLoop runs the engine's background exchange sweep on a fixed cadence
// until Close. The stop channel is passed in (rather than read from the
// engine) so the loop observes exactly the channel its StartSweep created.
func (e *Engine) sweepLoop(every, maxAge time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.SweepExchange(maxAge)
		case <-stop:
			return
		}
	}
}
