package engine

import (
	"strings"
	"sync"

	"repro/internal/relop"
	"repro/internal/storage"
)

// This file implements intra-query parallelism, the alternative the paper's
// title weighs sharing against: instead of merging m queries into one
// serial shared pipeline, a single query runs as d partitioned clone
// pipelines. A morsel dispenser (registered in the same Exchange as the
// in-flight circular scans, so both kinds of scan coexist) hands each clone
// disjoint spans of the base table; every clone runs the plan's
// row-local operators plus the root's Partial form over its share; all
// clones emit into one bounded fan-in queue; and a synthesized Merge node
// combines the partial states into exactly the serial plan's output.

// partitionedSource adapts one clone's table reader to the group's shared
// morsel dispenser: every Next claims the next unclaimed span, so the d
// clones collectively read the table exactly once.
type partitionedSource struct {
	src *tableSource
	md  *storage.MorselDispenser
}

// Schema implements PageSource.
func (p *partitionedSource) Schema() storage.Schema { return p.src.Schema() }

// Next implements PageSource: one dispensed span per quantum.
func (p *partitionedSource) Next() (*storage.Batch, bool, error) {
	sp, ok := p.md.Next()
	if !ok {
		return nil, true, nil
	}
	b, err := p.src.readSpan(sp.Lo, sp.Hi)
	return b, false, err
}

// fanInCloser closes the clones' shared fan-in queue once the last clone
// retires its outbox — closing on the first clone's finish would cut off
// its siblings mid-scan.
type fanInCloser struct {
	mu sync.Mutex
	n  int
	q  *PageQueue
}

func (f *fanInCloser) retire() {
	f.mu.Lock()
	f.n--
	last := f.n == 0
	f.mu.Unlock()
	if last {
		f.q.Close()
	}
}

// newParallelGroupLocked executes spec as d partitioned clone pipelines
// fanning into a synthesized merge node. The run is a group of one — it is
// the unshared alternative — so it is born sealed and never joinable.
// Caller holds e.mu; the caller has already validated spec.CanParallel()
// and clamped d.
func (e *Engine) newParallelGroupLocked(spec QuerySpec, h *Handle, d int, cp *Compiled) error {
	scanNode := spec.Nodes[0]
	root := spec.Nodes[len(spec.Nodes)-1]
	g := &shareGroup{signature: spec.Signature, spec: spec, size: 1, started: true}

	// One reader per clone plus a probe to learn the page quantum the
	// dispenser should hand out.
	probe, err := scanNode.Scan.newSource()
	if err != nil {
		return err
	}
	// The dispenser covers exactly the scan, so it registers in the work
	// exchange under the scan-level fingerprint: monitors see partitioned
	// and shared coverage of one subplan side by side.
	md := e.scans.PublishPartitioned(cp.shareKeyAt(0), scanNode.Scan.Table.NumRows(), probe.pageRows)
	ok := false
	defer func() {
		if !ok {
			md.Close()
		}
	}()

	fanIn := NewPageQueue(e.sched, spec.Signature+"/fan-in", e.opts.QueueCap)
	closer := &fanInCloser{n: d, q: fanIn}
	// A failed clone or merge stops draining queues; closing the dispenser
	// and the fan-in queue lets every surviving task run off the end instead
	// of parking forever (closed queues discard pushes).
	g.onFail = func() {
		md.Close()
		fanIn.Close()
	}

	// Merge node and sink, wired before any clone spawns so the fan-in
	// queue has its consumer from the start.
	mergeName := root.Name + "/merge"
	mergeOut := NewPageQueue(e.sched, mergeName+"-out", e.opts.QueueCap)
	mergeOb := &outbox{outs: []*PageQueue{mergeOut}}
	mop, err := root.Merge(func(b *storage.Batch) error { mergeOb.add(b); return nil })
	if err != nil {
		return err
	}
	mergeBody := &opTask{name: mergeName, push: mop.Push, finish: mop.Finish, in: fanIn, out: mergeOb, clock: e.clock, fail: g.fail}
	sink := e.newSinkTask(g, h, mergeOut, mop.OutSchema(), root.RowsHint)

	// Build all d clone pipelines before spawning anything, so a mid-build
	// error leaves no orphaned tasks.
	var spawns []pendingSpawn
	for c := 0; c < d; c++ {
		src, err := scanNode.Scan.newSource()
		if err != nil {
			return err
		}
		psrc := &partitionedSource{src: src, md: md}
		if e.fuseOK() {
			// CanParallel guarantees the clone pipeline is fully linear
			// (scan → row-local ops → root Partial), so the whole clone fuses
			// into one task: every page steps from the dispensed span to the
			// fan-in queue inside a single quantum, with no per-clone
			// intermediate queues at all.
			pob := &outbox{outs: []*PageQueue{fanIn}, retire: closer.retire}
			chain := &fusedChain{finishes: make([]func() error, len(spec.Nodes)-1)}
			emit := relop.Emit(func(b *storage.Batch) error { pob.add(b); return nil })
			pop, err := root.Partial(emit)
			if err != nil {
				return err
			}
			chain.finishes[len(spec.Nodes)-2] = pop.Finish
			chain.consumes = relop.Consumes(pop)
			emit = pop.Push
			for i := len(spec.Nodes) - 2; i >= 1; i-- {
				op, err := spec.Nodes[i].Op(emit)
				if err != nil {
					return err
				}
				chain.finishes[i-1] = op.Finish
				if relop.Consumes(op) {
					chain.consumes = true
				}
				emit = op.Push
			}
			chain.push = emit
			parts := make([]string, 0, len(spec.Nodes))
			for _, nd := range spec.Nodes {
				parts = append(parts, nd.Name)
			}
			name := strings.Join(parts, "+")
			body := &fusedSourceTask{name: name, src: psrc, chain: chain, out: pob, clock: e.clock, fail: g.fail}
			spawns = append(spawns, pendingSpawn{name, body.step})
			continue
		}
		scanOut := NewPageQueue(e.sched, scanNode.Name, e.opts.QueueCap)
		scanBody := &sourceTask{
			name:  scanNode.Name,
			src:   psrc,
			out:   &outbox{outs: []*PageQueue{scanOut}},
			clock: e.clock,
			fail:  g.fail,
		}
		spawns = append(spawns, pendingSpawn{scanNode.Name, scanBody.step})
		cur := scanOut
		// Interior nodes run their plain (partition-safe) operator per clone.
		for i := 1; i < len(spec.Nodes)-1; i++ {
			nd := spec.Nodes[i]
			q := NewPageQueue(e.sched, nd.Name, e.opts.QueueCap)
			ob := &outbox{outs: []*PageQueue{q}}
			op, err := nd.Op(func(b *storage.Batch) error { ob.add(b); return nil })
			if err != nil {
				return err
			}
			body := &opTask{name: nd.Name, push: op.Push, finish: op.Finish, in: cur, out: ob, clock: e.clock, fail: g.fail}
			spawns = append(spawns, pendingSpawn{nd.Name, body.step})
			cur = q
		}
		// The root runs its Partial form, emitting into the shared fan-in.
		pob := &outbox{outs: []*PageQueue{fanIn}, retire: closer.retire}
		pop, err := root.Partial(func(b *storage.Batch) error { pob.add(b); return nil })
		if err != nil {
			return err
		}
		body := &opTask{name: root.Name, push: pop.Push, finish: pop.Finish, in: cur, out: pob, clock: e.clock, fail: g.fail}
		spawns = append(spawns, pendingSpawn{root.Name, body.step})
	}

	ok = true
	// A parallel run is a group of one, so every clone, the merge, and the
	// sink all bill their quanta to the one member's trace.
	for _, p := range spawns {
		e.sched.Spawn(p.name, traceStep(h.trace, p.step))
	}
	e.sched.Spawn(mergeName, traceStep(h.trace, mergeBody.step))
	e.sched.Spawn(spec.Signature+"/sink", traceStep(h.trace, sink.step))
	return nil
}

var _ PageSource = (*partitionedSource)(nil)
