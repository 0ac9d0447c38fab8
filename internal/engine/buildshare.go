package engine

import (
	"fmt"

	"repro/internal/relop"
	"repro/internal/storage"
	"sync"
)

// This file implements build-side sharing: a hash join's build phase run
// once for a whole group of queries, its sealed immutable table published
// through the work exchange as a "buildstate" entry and probed privately by
// every member. It is the tree-pivot counterpart of the fan-out outbox and
// the circular scan — where those share a page stream (and therefore seal
// against late joiners once pages start flowing), a build state shares an
// artifact: members may attach before the build finishes (they park on a
// ready queue the seal closes) or long after (the sealed table loses nothing
// to late joiners), so a build group stays joinable until its last prober
// releases the table.
//
// Two paths create a buildShare:
//
//   - a pure build group, anchored at a Build pivot candidate: the build
//     subtree plus the collector are the shared part and every member —
//     anchor included — runs the probe subtree, the probe phase, and
//     everything above privately;
//   - a mixed group, anchored at a fan-out pivot whose shared subtree
//     contains a join with split Build/Probe forms: the group's own join
//     runs split (collector + one shared probe feeding the pivot fan-out)
//     and the sealed table is additionally published under the build key,
//     so a different-variant query that cannot match the anchor level still
//     attaches to the build — sharing at the highest possible level, and
//     below it when that is all the plans have in common.

// buildShare coordinates one shared hash-join build: the exchange entry, the
// waiters parked until the seal, and the reader-claim accounting on the
// table's row storage (each prober beyond the first holds one claim,
// released when its probe retires — the shared-page protocol applied to the
// build artifact).
type buildShare struct {
	key   string
	pivot int // root of the build subtree
	state *storage.BuildState
	// foreign marks a share wrapping a build state owned by another engine on
	// a shared exchange (the cross-shard artifact bus): the build subtree runs
	// on the owner's shard, this engine only parks probers until the owner
	// seals (adoptForeign) and never retires the state on a local failure —
	// other shards may still be sharing it. Every local prober of a foreign
	// share claims a reader mark (the owner's group holds the table's base
	// ownership), so claim accounting stays balanced across engines.
	foreign bool
	// recycle marks a share whose table returns to its store pool at the
	// last release (see releaseProber): set when the engine has no
	// keep-alive cache, so nothing can hold the table past its probers.
	// Foreign shares never set it: the owner's share recycles, or nobody
	// does, since other shards may still be probing.
	recycle bool
	// onSeal runs once just before the build seals (the engine counts
	// executed builds through it).
	onSeal func()

	mu      sync.Mutex
	ready   []*PageQueue // waiters to close at seal/failure
	table   *relop.HashTable
	sealed  bool
	failed  bool
	probers int // live probers; claims on the table rows are probers-1
}

// newWaiter registers a ready queue the probe task parks on until the table
// is available: the queue carries no data — its closure is the signal. A
// build already sealed or failed hands back a closed queue, so late probers
// proceed immediately.
func (bs *buildShare) newWaiter(s *Scheduler, name string) *PageQueue {
	// MinQueueCap, not a literal: this queue is a pure close-signal and must
	// stay at the floor so it can never buffer a page by accident.
	q := NewPageQueue(s, name+"/build-ready", MinQueueCap)
	bs.mu.Lock()
	done := bs.sealed || bs.failed
	if !done {
		bs.ready = append(bs.ready, q)
	}
	bs.mu.Unlock()
	if done {
		q.Close()
	}
	return q
}

// attachProber records one more query probing the table, refusing once the
// state has retired. Probers beyond the first claim a reader mark on the
// table's rows (post-seal immediately, pre-seal when the seal fires).
func (bs *buildShare) attachProber() bool {
	if !bs.state.Attach() {
		return false
	}
	bs.mu.Lock()
	bs.probers++
	if bs.sealed && bs.table != nil && (bs.probers > 1 || bs.foreign) {
		bs.table.Rows().MarkShared(1)
	}
	bs.mu.Unlock()
	return true
}

// releaseProber is attachProber's inverse: the probe retired (finished,
// failed, or was never started). Dropping the last prober of a sealed state
// retires the exchange entry; the engine prunes the retired group from its
// joinable map lazily — at the next probe of the key or the next
// SweepExchange — so retirement never needs the engine lock.
//
// The release that retires the state is also the one point where no reader
// of the table can remain, so a recycling share hands the table's storage
// back to its pool there. Only that release counts: a state retired by
// failShare, a sweep or an owner Retire may still have probers reading the
// table (Retire's contract lets them), so its later releases recycle
// nothing. A prober that won the race to attach between the last release
// and the retirement keeps a reference, which the Refs check sees; once
// Release returns, the state is retired and no prober can attach.
func (bs *buildShare) releaseProber() {
	bs.mu.Lock()
	bs.probers--
	tbl := bs.table
	if tbl != nil {
		tbl.Rows().Release()
	}
	bs.mu.Unlock()
	if bs.state.Release() && bs.recycle && tbl != nil && bs.state.Refs() == 0 {
		tbl.Recycle()
	}
}

// seal counts the build, then publishes the built table: marks the pre-seal
// probers' reader claims, registers the artifact with the exchange entry,
// and wakes every waiter. The count comes before any prober can see the
// table, so a member's result never completes ahead of its build being
// counted. Only the share's collector seals, so the check and the seal
// cannot interleave with another seal.
func (bs *buildShare) seal(tbl *relop.HashTable) {
	bs.mu.Lock()
	done := bs.sealed || bs.failed
	bs.mu.Unlock()
	if done {
		return
	}
	if bs.onSeal != nil {
		bs.onSeal()
	}
	bs.mu.Lock()
	if bs.sealed || bs.failed {
		bs.mu.Unlock()
		return
	}
	bs.sealed = true
	bs.table = tbl
	if bs.probers > 1 {
		tbl.Rows().MarkShared(bs.probers - 1)
	}
	ready := bs.ready
	bs.ready = nil
	bs.mu.Unlock()
	bs.state.Seal(tbl)
	for _, q := range ready {
		q.Close()
	}
}

// sealCached publishes a table served from the keep-alive cache: the share
// starts life sealed, so waiters (there are none yet on a fresh group, but
// the path is uniform) proceed immediately and every prober attaches
// post-seal. Unlike seal it fires no onSeal hook — no build executed — and
// marks no reader claims, since no prober has attached yet.
func (bs *buildShare) sealCached(tbl *relop.HashTable) {
	bs.mu.Lock()
	if bs.sealed || bs.failed {
		bs.mu.Unlock()
		return
	}
	bs.sealed = true
	bs.table = tbl
	ready := bs.ready
	bs.ready = nil
	bs.mu.Unlock()
	bs.state.Seal(tbl)
	for _, q := range ready {
		q.Close()
	}
}

// adoptForeign publishes a table sealed by another engine's build into this
// engine's share: local waiters wake, and every local prober claims a reader
// mark on the table rows (the owner's group holds the base ownership, so
// local claims and releases must balance exactly — probers, not probers-1).
// It fires no onSeal hook (the build executed, and was counted, on the
// owner's shard) and never touches the shared state, which the owner has
// already sealed.
func (bs *buildShare) adoptForeign(tbl *relop.HashTable) {
	bs.mu.Lock()
	if bs.sealed || bs.failed {
		bs.mu.Unlock()
		return
	}
	bs.sealed = true
	bs.table = tbl
	if bs.probers > 0 {
		tbl.Rows().MarkShared(bs.probers)
	}
	ready := bs.ready
	bs.ready = nil
	bs.mu.Unlock()
	for _, q := range ready {
		q.Close()
	}
}

// failLocal aborts this engine's side of a foreign share — the owner's build
// died, or a local member poisoned the local group. Waiters wake into the
// failure path, but the shared state is left alone: it belongs to the owner's
// engine and other shards may still be probing it. The probers' state
// references are dropped by their tasks' usual retire path.
func (bs *buildShare) failLocal() {
	bs.mu.Lock()
	if bs.sealed || bs.failed {
		bs.mu.Unlock()
		return
	}
	bs.failed = true
	ready := bs.ready
	bs.ready = nil
	bs.mu.Unlock()
	for _, q := range ready {
		q.Close()
	}
}

// failShare aborts the build: waiters are woken into the failure path and
// the exchange entry retires so no further query discovers the group. The
// keep-alive hand-off is cleared first — a group that failed must not seed
// the cache, even when its table had already sealed (the artifact may be
// fine, but a poisoned group is not the provenance to trust).
func (bs *buildShare) failShare() {
	bs.state.SetHandoff(nil)
	bs.mu.Lock()
	if bs.sealed || bs.failed {
		bs.mu.Unlock()
		// A failure after the seal (a member chain died) leaves the sealed
		// table usable; only discoverability ends.
		bs.state.Retire()
		return
	}
	bs.failed = true
	ready := bs.ready
	bs.ready = nil
	bs.mu.Unlock()
	for _, q := range ready {
		q.Close()
	}
	bs.state.Retire()
}

// sealedTable returns the table once available; ok is false while the build
// runs or after it failed.
func (bs *buildShare) sealedTable() (*relop.HashTable, bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.table, bs.sealed && bs.table != nil
}

// buildCollectorTask drains the build subtree's output into a JoinBuild and
// seals the shared state when the stream ends — the stop-&-go build phase of
// Section 5.3.3, run once per group however many queries probe the result.
type buildCollectorTask struct {
	name  string
	jb    *relop.JoinBuild
	in    *PageQueue
	bs    *buildShare
	clock *busyClock
	fail  func(error)
}

func (bt *buildCollectorTask) step(t *Task) Status {
	if !bt.bs.recycle {
		// The table may go to the keep-alive cache, which charges its
		// FootprintBytes: it must not pin a pooled store's capacity.
		bt.jb.FreshStorage()
	}
	b, ok, done := bt.in.TryPop(t)
	switch {
	case ok:
		var err error
		bt.clock.measure(bt.name, func() { err = bt.jb.Push(b) })
		if err != nil {
			bt.fail(err)
			bt.bs.failShare()
			return Done
		}
		// The build copies what it hashes; drop this consumer's claim on a
		// fanned-out page immediately.
		b.Release()
		return Again
	case done:
		var err error
		bt.clock.measure(bt.name, func() { err = bt.jb.Finish() })
		if err != nil {
			bt.fail(err)
			bt.bs.failShare()
			return Done
		}
		var tbl *relop.HashTable
		bt.clock.measure(bt.name, func() { tbl = bt.jb.Table() })
		bt.bs.seal(tbl)
		return Done
	default:
		return Blocked
	}
}

// probeAttachTask drives one member's probe phase: it parks until the shared
// build seals (or fails), attaches the probe operator to the sealed table,
// then streams the member's probe input through it like any unary operator.
// Its prober reference is released exactly once, when the task retires.
type probeAttachTask struct {
	name     string
	bs       *buildShare
	ready    *PageQueue
	probe    ProbeOperator
	in       *PageQueue
	out      *outbox
	clock    *busyClock
	fail     func(error)
	attached bool
	finished bool
	released bool
}

// retire drops the prober reference once, then closes the member's output.
// The release comes first so the last prober retires the build state, and
// hands its table to the cache, before the member's result can complete:
// a query submitted right after Wait returns finds the table cached. The
// probe's output rows are fresh, so nothing downstream reads the table.
func (pt *probeAttachTask) retire() {
	if !pt.released {
		pt.released = true
		pt.bs.releaseProber()
	}
	pt.out.closeAll()
}

func (pt *probeAttachTask) step(t *Task) Status {
	if !pt.attached {
		if _, _, done := pt.ready.TryPop(t); !done {
			return Blocked
		}
		tbl, ok := pt.bs.sealedTable()
		if !ok {
			pt.fail(fmt.Errorf("engine: shared hash build for %s aborted", pt.name))
			pt.retire()
			return Done
		}
		if err := pt.probe.AttachTable(tbl); err != nil {
			pt.fail(err)
			pt.retire()
			return Done
		}
		pt.attached = true
	}
	flushed := false
	pt.clock.measure(pt.name, func() { flushed = pt.out.flush(t) })
	if !flushed {
		return Blocked
	}
	if pt.finished {
		pt.retire()
		return Done
	}
	b, ok, done := pt.in.TryPop(t)
	switch {
	case ok:
		var err error
		pt.clock.measure(pt.name, func() { err = pt.probe.Push(b) })
		if err != nil {
			pt.fail(err)
			pt.retire()
			return Done
		}
		// The probe emits fresh output rows; release this consumer's claim.
		b.Release()
		return Again
	case done:
		var err error
		pt.clock.measure(pt.name, func() { err = pt.probe.Finish() })
		if err != nil {
			pt.fail(err)
			pt.retire()
			return Done
		}
		pt.finished = true
		return Again // flush whatever Finish emitted, then retire
	default:
		return Blocked
	}
}

// buildOptionWithin returns spec's first build-side pivot candidate whose
// consuming join lies inside the subtree rooted at anchor — the condition
// for a fan-out group anchored there to run its join split and publish the
// build state alongside (a mixed group).
func buildOptionWithin(spec QuerySpec, anchor int) (PivotOption, int, bool) {
	mask := spec.SubtreeMask(anchor)
	for _, opt := range spec.Pivots {
		if !opt.Build {
			continue
		}
		c := spec.pivotConsumer(opt.Pivot)
		if c >= 0 && mask[c] && spec.Nodes[c].Build != nil && spec.Nodes[c].BuildInput == opt.Pivot {
			return opt, c, true
		}
	}
	return PivotOption{}, -1, false
}
