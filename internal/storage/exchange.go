package storage

import (
	"fmt"
	"sync"
	"time"
)

// This file implements the unified work-exchange registry: the single
// subsystem through which every in-flight work-sharing primitive registers,
// is discovered, and retires. Four kinds of entry coexist, all keyed by the
// canonical fingerprint of the subplan whose work they carry:
//
//   - circular scans (scanshare.go): every page to every consumer, late
//     joiners attach mid-flight and recover the missed prefix on wrap-around;
//   - partitioned scans (partition.go): every page to exactly one clone of a
//     consumer group (morsel-driven intra-query parallelism);
//   - subplan outlets: a shared operator pipeline above the scan whose pivot
//     fans each output page to its member chains. The exchange tracks the
//     outlet's live consumer count so monitors see sharing at any level, not
//     just at the leaf;
//   - build states: the materialized, immutable build side of a hash join,
//     run once and probed by every attached consumer. Unlike page-stream
//     entries a build state stays attachable after it is sealed — the hash
//     table is the shared artifact, not the stream that produced it — so it
//     is refcounted and retires when its last prober releases it.
//
// Before this unification the engine juggled a scan registry and a dispenser
// map with separate lifecycles; now publish, lookup, and retire flow through
// one keyed map with kind-tagged entries. Superseded entries (a republish
// under a live key) are parked on an orphan list with a timestamp so the
// age-based Sweep can force-retire primitives whose consumer group never
// completes — the wedged-consumer leak an entry-owned lifecycle cannot cover.

// ExchangeKind tags one work-exchange entry.
type ExchangeKind int

const (
	// KindCircular is an in-flight circular (elevator) scan.
	KindCircular ExchangeKind = iota
	// KindPartitioned is a morsel-dispensed partitioned scan group.
	KindPartitioned
	// KindOutlet is a shared subplan pivot fanning pages to member chains.
	KindOutlet
	// KindBuildState is a shared hash-join build side: one sealed immutable
	// hash table amortized over every attached prober.
	KindBuildState
)

// String returns the kind label.
func (k ExchangeKind) String() string {
	switch k {
	case KindCircular:
		return "circular"
	case KindPartitioned:
		return "partitioned"
	case KindOutlet:
		return "outlet"
	case KindBuildState:
		return "buildstate"
	default:
		return fmt.Sprintf("ExchangeKind(%d)", int(k))
	}
}

// Outlet is the exchange's record of a shared subplan pipeline: the common
// prefix of a sharing group that runs once while its pivot fans each output
// page out to the member chains. The outlet carries no data itself (pages
// flow through the engine's queues); it exists so sharing above the scan is
// as observable and retireable as the scan-level primitives.
type Outlet struct {
	mu        sync.Mutex
	key       string
	consumers int
	closed    bool
	onClose   func()
}

// Key returns the fingerprint the outlet was published under.
func (o *Outlet) Key() string { return o.key }

// Attach records one more member chain drawing from the outlet. It returns
// false once the outlet has retired.
func (o *Outlet) Attach() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return false
	}
	o.consumers++
	return true
}

// Consumers returns the current member count.
func (o *Outlet) Consumers() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.consumers
}

// Retire closes the outlet and unregisters it. Idempotent.
func (o *Outlet) Retire() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	hook := o.onClose
	o.onClose = nil
	o.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// Closed reports whether the outlet has retired.
func (o *Outlet) Closed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.closed
}

// BuildState is the exchange's record of a shared hash-join build side: the
// build subplan runs once, seals an immutable artifact (the engine stores a
// *relop.HashTable; the exchange treats it opaquely), and every concurrent
// join query that fingerprint-matches the build subplan attaches and probes
// the one table privately. Attachment is refcounted: unlike a page stream,
// a sealed build state remains attachable — late probers lose nothing — and
// it retires when the last prober releases it, so the table's memory has the
// lifetime of its use, not of the registry.
type BuildState struct {
	mu       sync.Mutex
	key      string
	born     time.Time
	refs     int
	sealed   bool
	value    any
	retired  bool
	onClose  func()    // unregisters from the exchange
	onRetire func()    // owner hook: fail waiters, unseal joinable group
	handoff  func(any) // keep-alive hook: receives the sealed value at retire
	// subs are cross-engine seal subscribers: when the exchange is shared as
	// an artifact bus between engine shards, a shard that attaches to a build
	// in flight on another shard has no access to the owner's wakeup queues,
	// so it subscribes here instead (see Subscribe).
	subs []func(any, bool)
}

// Key returns the fingerprint the build state was published under.
func (b *BuildState) Key() string { return b.key }

// Attach records one more prober of the table (sealed or not). It returns
// false once the state has retired; the caller must then build afresh.
func (b *BuildState) Attach() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.retired {
		return false
	}
	b.refs++
	return true
}

// Release drops one prober. When the last prober releases a sealed state the
// state retires (reporting true), dropping the table; an unsealed state
// survives zero refs so a group whose first member failed admission cannot
// strand its build mid-flight.
func (b *BuildState) Release() (retired bool) {
	b.mu.Lock()
	b.refs--
	last := b.refs <= 0 && b.sealed && !b.retired
	b.mu.Unlock()
	if last {
		b.Retire()
	}
	return last
}

// Refs returns the current prober count.
func (b *BuildState) Refs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refs
}

// Seal publishes the built artifact; probers attached before the seal are
// woken by the owner (the exchange carries no queues), and cross-engine
// subscribers (Subscribe) are notified here. Sealing a retired state is a
// no-op so a swept wedged build cannot resurrect itself.
func (b *BuildState) Seal(value any) {
	b.mu.Lock()
	if b.retired || b.sealed {
		b.mu.Unlock()
		return
	}
	b.sealed = true
	b.value = value
	subs := b.subs
	b.subs = nil
	b.mu.Unlock()
	// Fire outside b.mu: subscribers take their own locks and may call back
	// into the state (Refs, Sealed).
	for _, fn := range subs {
		fn(value, true)
	}
}

// Subscribe registers a one-shot notification of the state's outcome: fn is
// called with (artifact, true) when the state seals, or (nil, false) when it
// retires without ever sealing — a failed or swept build. A state that has
// already resolved fires fn immediately (a retired-while-sealed state fires
// (nil, false): its artifact has been dropped or handed off, so a late
// subscriber must rebuild or go through the cache). This is the cross-engine
// half of the build-state contract: an engine attaching to a build owned by
// another engine on a shared exchange has no access to the owner's wakeup
// queues and waits through this hook instead.
func (b *BuildState) Subscribe(fn func(value any, sealed bool)) {
	b.mu.Lock()
	switch {
	case b.retired:
		b.mu.Unlock()
		fn(nil, false)
	case b.sealed:
		v := b.value
		b.mu.Unlock()
		fn(v, true)
	default:
		b.subs = append(b.subs, fn)
		b.mu.Unlock()
	}
}

// Sealed reports whether the artifact is published, returning it when so.
func (b *BuildState) Sealed() (any, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.value, b.sealed
}

// Age returns how long ago the state was published.
func (b *BuildState) Age() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Since(b.born)
}

// Retire drops the state and unregisters it, firing the owner's retire hook.
// Idempotent. Probers already holding the sealed table are unaffected — the
// artifact is immutable — only discoverability ends. A sealed state with a
// hand-off hook installed (SetHandoff) passes its artifact to the hook
// instead of silently dropping it: the retire path of the keep-alive cache.
func (b *BuildState) Retire() {
	b.mu.Lock()
	if b.retired {
		b.mu.Unlock()
		return
	}
	b.retired = true
	var val any
	if b.sealed {
		val = b.value
	}
	b.value = nil
	unreg := b.onClose
	hook := b.onRetire
	keep := b.handoff
	subs := b.subs
	b.onClose, b.onRetire, b.handoff, b.subs = nil, nil, nil, nil
	b.mu.Unlock()
	if unreg != nil {
		unreg()
	}
	if keep != nil && val != nil {
		keep(val)
	}
	if hook != nil {
		hook()
	}
	// Pending subscribers on an unsealed retirement learn the build died; a
	// sealed state has already drained its list at Seal.
	for _, fn := range subs {
		fn(nil, false)
	}
}

// SetHandoff installs (or, with nil, clears) the keep-alive hand-off hook:
// fired once with the sealed artifact when the state retires while sealed,
// however the retirement happens — last release, sweep, or owner retire.
// Unsealed retirements (a failed or wedged build) have no artifact and never
// fire it. Setting a hook on an already-retired state is a no-op: the value
// is gone.
func (b *BuildState) SetHandoff(fn func(any)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.retired {
		return
	}
	b.handoff = fn
}

// Retired reports whether the state has retired.
func (b *BuildState) Retired() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retired
}

// OnRetire sets the owner hook fired once when the state retires (by
// release, failure, or sweep). Setting it after retirement fires it
// immediately.
func (b *BuildState) OnRetire(hook func()) {
	b.mu.Lock()
	if !b.retired {
		b.onRetire = hook
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// sweepable reports whether an age-based sweep should force-retire the
// state: past maxAge and either never sealed (a wedged build starves its
// waiters forever) or unreferenced (a leak the release path missed).
func (b *BuildState) sweepable(maxAge time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.retired && time.Since(b.born) > maxAge && (!b.sealed || b.refs <= 0)
}

// exchangeEntry is one kind-tagged registration.
type exchangeEntry struct {
	kind  ExchangeKind
	circ  *CircularScan
	part  *MorselDispenser
	out   *Outlet
	build *BuildState
	born  time.Time
}

// retirePrimitive force-closes whatever primitive the entry carries.
func (e exchangeEntry) retirePrimitive() {
	switch {
	case e.circ != nil:
		e.circ.Close()
	case e.part != nil:
		e.part.Close()
	case e.out != nil:
		e.out.Retire()
	case e.build != nil:
		e.build.Retire()
	}
}

// live reports whether the entry's primitive is still open — a closed one
// needs no sweeping and must not count as a reclaim.
func (e exchangeEntry) live() bool {
	switch {
	case e.circ != nil:
		return !e.circ.Closed()
	case e.part != nil:
		return !e.part.Closed()
	case e.out != nil:
		return !e.out.Closed()
	case e.build != nil:
		return !e.build.Retired()
	default:
		return false
	}
}

// Exchange is the unified work-exchange registry. All methods are safe for
// concurrent use. Entries unregister themselves when their primitive closes.
type Exchange struct {
	mu      sync.Mutex
	entries map[string]exchangeEntry
	seq     int
	// orphans are superseded-but-live entries awaiting their consumers (or
	// the sweep); supersedes and sweepReclaims count supersede events and
	// sweep-forced retirements for the workload stats.
	orphans       []exchangeEntry
	supersedes    int64
	sweepReclaims int64
}

// NewExchange creates an empty work-exchange registry.
func NewExchange() *Exchange {
	return &Exchange{entries: make(map[string]exchangeEntry)}
}

// registerLocked installs an entry under key, parking any still-live entry
// it supersedes on the orphan list. Caller holds r.mu.
func (r *Exchange) registerLocked(key string, e exchangeEntry) {
	if old, ok := r.entries[key]; ok {
		r.supersedes++
		old.born = time.Now() // orphan age counts from the supersede
		r.orphans = append(r.orphans, old)
	}
	e.born = time.Now()
	r.entries[key] = e
}

// Publish creates a circular scan over rows rows, registers it under key,
// and returns it. A still-live entry previously registered under the same
// key is superseded (its consumers finish undisturbed; it simply stops
// being discoverable, and the sweep reclaims it if they never do).
func (r *Exchange) Publish(key string, rows, pageRows int) *CircularScan {
	cs := NewCircularScan(rows, pageRows)
	r.mu.Lock()
	r.registerLocked(key, exchangeEntry{kind: KindCircular, circ: cs})
	r.mu.Unlock()
	cs.mu.Lock()
	cs.onClose = func() { r.unregisterCircular(key, cs) }
	cs.mu.Unlock()
	return cs
}

// PublishPartitioned creates a morsel dispenser over rows rows and registers
// it under a key derived from key plus a unique sequence number: every call
// starts a fresh consumer group, so two concurrent partitioned runs of the
// same query never steal each other's spans (exactly-once is per group, not
// per table). The dispenser unregisters itself once fully dispensed or
// closed. Partitioned entries live alongside circular scans and outlets;
// the same subplan may be covered by several kinds at once.
func (r *Exchange) PublishPartitioned(key string, rows, morselRows int) *MorselDispenser {
	md := NewMorselDispenser(rows, morselRows)
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("%s#%d", key, r.seq)
	r.registerLocked(id, exchangeEntry{kind: KindPartitioned, part: md})
	r.mu.Unlock()
	md.mu.Lock()
	if md.closed {
		// Zero-row dispensers may have closed before the hook was set.
		md.mu.Unlock()
		r.mu.Lock()
		delete(r.entries, id)
		r.mu.Unlock()
		return md
	}
	md.onClose = func() { r.unregisterPartitioned(id, md) }
	md.mu.Unlock()
	return md
}

// PublishOutlet registers a shared subplan outlet under key and returns it.
// A still-live outlet under the same key is superseded.
func (r *Exchange) PublishOutlet(key string) *Outlet {
	o := &Outlet{key: key}
	r.mu.Lock()
	r.registerLocked(key, exchangeEntry{kind: KindOutlet, out: o})
	r.mu.Unlock()
	o.mu.Lock()
	o.onClose = func() { r.unregisterOutlet(key, o) }
	o.mu.Unlock()
	return o
}

// PublishBuildState registers a hash-join build state under key (typically
// the build subplan's fingerprint) and returns it. A still-live state under
// the same key is superseded.
func (r *Exchange) PublishBuildState(key string) *BuildState {
	b := &BuildState{key: key, born: time.Now()}
	r.mu.Lock()
	r.registerLocked(key, exchangeEntry{kind: KindBuildState, build: b})
	r.mu.Unlock()
	b.mu.Lock()
	b.onClose = func() { r.unregisterBuildState(key, b) }
	b.mu.Unlock()
	return b
}

// Lookup returns the in-flight circular scan registered under key, or nil.
func (r *Exchange) Lookup(key string) *CircularScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[key].circ
}

// LookupOutlet returns the live outlet registered under key, or nil.
func (r *Exchange) LookupOutlet(key string) *Outlet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[key].out
}

// LookupBuildState returns the live build state registered under key, or nil.
func (r *Exchange) LookupBuildState(key string) *BuildState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[key].build
}

// countKind returns the number of live entries of one kind.
func (r *Exchange) countKind(k ExchangeKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		if e.kind == k {
			n++
		}
	}
	return n
}

// InFlight returns the number of registered (live) circular scans.
func (r *Exchange) InFlight() int { return r.countKind(KindCircular) }

// PartitionedInFlight returns the number of registered (live) partitioned
// scan groups.
func (r *Exchange) PartitionedInFlight() int { return r.countKind(KindPartitioned) }

// OutletsInFlight returns the number of registered (live) subplan outlets.
func (r *Exchange) OutletsInFlight() int { return r.countKind(KindOutlet) }

// BuildStatesInFlight returns the number of registered (live) build states.
func (r *Exchange) BuildStatesInFlight() int { return r.countKind(KindBuildState) }

// Entries returns the total number of live registrations of all kinds.
func (r *Exchange) Entries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Orphans returns the number of superseded entries whose primitives have not
// yet closed or been swept.
func (r *Exchange) Orphans() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.orphans)
}

// SupersedeCount returns how many registrations displaced a still-live entry
// since startup — the supersede-frequency metric the workload stats surface.
func (r *Exchange) SupersedeCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.supersedes
}

// SweepReclaims returns how many entries Sweep has force-retired since
// startup.
func (r *Exchange) SweepReclaims() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweepReclaims
}

// Sweep force-retires entries no entry-owned lifecycle will ever reclaim:
// superseded orphans older than maxAge whose consumer group never completed
// (the wedged-consumer case), and live build states older than maxAge that
// are unsealed (a wedged build starving its waiters) or unreferenced. It
// returns the number of entries reclaimed. Safe to call on any cadence;
// maxAge zero sweeps everything eligible immediately.
func (r *Exchange) Sweep(maxAge time.Duration) int {
	r.mu.Lock()
	var victims []exchangeEntry
	var keep []exchangeEntry
	for _, o := range r.orphans {
		switch {
		case !o.live():
			// The consumer group completed after all; nothing to reclaim.
		case time.Since(o.born) > maxAge:
			victims = append(victims, o)
		default:
			keep = append(keep, o)
		}
	}
	r.orphans = keep
	for _, e := range r.entries {
		if e.kind == KindBuildState && e.build.sweepable(maxAge) {
			victims = append(victims, e)
		}
	}
	r.sweepReclaims += int64(len(victims))
	r.mu.Unlock()
	// Retire outside r.mu: primitives unregister themselves via onClose,
	// which re-enters the exchange lock.
	for _, v := range victims {
		v.retirePrimitive()
	}
	return len(victims)
}

func (r *Exchange) unregisterCircular(key string, cs *CircularScan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[key].circ == cs {
		delete(r.entries, key)
	}
}

func (r *Exchange) unregisterPartitioned(id string, md *MorselDispenser) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[id].part == md {
		delete(r.entries, id)
	}
}

func (r *Exchange) unregisterOutlet(key string, o *Outlet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[key].out == o {
		delete(r.entries, key)
	}
}

func (r *Exchange) unregisterBuildState(key string, b *BuildState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[key].build == b {
		delete(r.entries, key)
	}
}
