package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relop"
	"repro/internal/storage"
)

// A shared hash build fails three ways, one per origin of the table: the
// group's own build subtree dies (built here), the owning shard's build dies
// under a bus-attached prober (foreign), or a prober's private chain dies on
// the attaching shard while the owner's build is healthy (foreign, local
// failure). Each must resolve every member, and only the owner may retire
// the shared state.

var errBuildBoom = errors.New("build subtree exploded")

// armedOp passes pages through, or fails every Push while armed.
type armedOp struct {
	schema storage.Schema
	emit   relop.Emit
	armed  *atomic.Bool
}

func (g armedOp) OutSchema() storage.Schema { return g.schema }
func (g armedOp) Finish() error             { return nil }
func (g armedOp) Push(b *storage.Batch) error {
	if g.armed.Load() {
		return errBuildBoom
	}
	return g.emit(b)
}

// armedNode is a pass-through node over input that fails while armed; its
// fingerprint does not depend on the arming, so an armed and a disarmed plan
// share keys.
func armedNode(name string, input int, schema storage.Schema, armed *atomic.Bool) NodeSpec {
	return NodeSpec{Name: name, Input: input, Fingerprint: "armed", Op: func(emit relop.Emit) (relop.Operator, error) {
		return armedOp{schema: schema, emit: emit, armed: armed}, nil
	}}
}

// armedBuildSpec is semiSpec with an armed node on its build side: nodes [build
// scan, armed, probe scan, join], the join and the armed build subtree
// offered as pivot candidates (candidate index 1 is the build).
func armedBuildSpec(bt, pt *storage.Table, sig string, probePred relop.Pred, armed *atomic.Bool) QuerySpec {
	base := semiSpec(bt, pt, sig, probePred)
	join := base.Nodes[2]
	join.BuildInput, join.ProbeInput = 1, 2
	buildSchema := storage.MustSchema(storage.Column{Name: "bv", Type: storage.Int64})
	return QuerySpec{
		Signature: sig,
		Pivot:     3,
		Pivots: []PivotOption{
			{Pivot: 3},
			{Pivot: 1, Build: true, Model: base.Pivots[1].Model},
		},
		Nodes: []NodeSpec{base.Nodes[0], armedNode(sig+"/armed", 0, buildSchema, armed), base.Nodes[1], join},
	}
}

// waitWithin waits for h, failing the test instead of hanging on a wedged
// member.
func waitWithin(t *testing.T, h *Handle) (*storage.Batch, error) {
	t.Helper()
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never completed", h.name)
	}
	return h.Wait()
}

// A build group whose own build subtree fails delivers the error to every
// member, retires its state, and leaves the key free: the next same-key
// submission anchors and builds afresh.
func TestBuildFailureBuiltHere(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	var armed atomic.Bool
	armed.Store(true)
	specA := armedBuildSpec(bt, pt, "bf/a", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}}, &armed)
	specB := armedBuildSpec(bt, pt, "bf/b", relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: 16}}, &armed)
	key := BuildShareKey(specA, 1)
	e, err := New(Options{Workers: 2, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ha, err := e.Submit(specA, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := e.Submit(specB, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ha.Decision().Kind != "anchor" || hb.Decision().Kind != "build-share" {
		t.Fatalf("decisions %q, %q; want anchor, build-share", ha.Decision().Kind, hb.Decision().Kind)
	}
	e.Start()
	for _, h := range []*Handle{ha, hb} {
		if _, err := waitWithin(t, h); !errors.Is(err, errBuildBoom) {
			t.Errorf("%s: err = %v, want the build failure", h.name, err)
		}
	}
	if st := e.Exchange().LookupBuildState(key); st != nil {
		t.Fatal("a failed build left its state discoverable")
	}
	if n := e.Counters(); n.HashBuilds != 0 || n.BuildJoins != 1 || n.Active != 0 {
		t.Fatalf("after the failure: HashBuilds=%d BuildJoins=%d Active=%d, want 0, 1, 0", n.HashBuilds, n.BuildJoins, n.Active)
	}

	armed.Store(false)
	hc, err := e.Submit(specA, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hc.Decision().Kind != "anchor" {
		t.Fatalf("decision after the failure = %q, want a fresh anchor", hc.Decision().Kind)
	}
	rc, err := waitWithin(t, hc)
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, "rebuilt", rc, 0, 32)
	if n := e.Counters(); n.HashBuilds != 1 || n.BuildJoins != 1 {
		t.Errorf("after the rebuild: HashBuilds=%d BuildJoins=%d, want 1, 1", n.HashBuilds, n.BuildJoins)
	}
}

// A prober attached through the bus to another shard's build fails, rather
// than hangs, when the owner's build dies.
func TestBuildFailureForeignOwner(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	var armed atomic.Bool
	armed.Store(true)
	specA := armedBuildSpec(bt, pt, "bff/a", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}}, &armed)
	specB := armedBuildSpec(bt, pt, "bff/b", relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: 16}}, &armed)
	c, err := NewCluster(2, Options{Workers: 1, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ha, err := c.Shard(0).Submit(specA, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := c.Shard(1).Submit(specB, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hb.Decision().Kind != "bus-share" {
		t.Fatalf("shard 1 decision = %q, want bus-share", hb.Decision().Kind)
	}
	c.Start()
	if _, err := waitWithin(t, ha); !errors.Is(err, errBuildBoom) {
		t.Errorf("owner: err = %v, want the build failure", err)
	}
	if _, err := waitWithin(t, hb); err == nil {
		t.Error("bus-attached prober completed without an error")
	}
	if n := c.Counters(); n.HashBuilds != 0 || n.BusJoins != 1 || n.Active != 0 {
		t.Errorf("HashBuilds=%d BusJoins=%d Active=%d, want 0, 1, 0", n.HashBuilds, n.BusJoins, n.Active)
	}
}

// A failure in a bus-attached prober's private chain fails that prober's
// group only: the owner's state stays live, and the owner's members
// complete with their rows.
func TestBuildFailureForeignLocal(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	var armed atomic.Bool
	armed.Store(true)
	specA := semiSpec(bt, pt, "bfl/a", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}})
	specA2 := semiSpec(bt, pt, "bfl/a2", relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: 8}})
	specB := semiSpec(bt, pt, "bfl/b", nil)
	probeSchema := storage.MustSchema(storage.Column{Name: "pv", Type: storage.Int64})
	specB.Nodes = append(specB.Nodes, armedNode("bfl/b/armed", 2, probeSchema, &armed))
	key := BuildShareKey(specA, 0)
	c, err := NewCluster(2, Options{Workers: 1, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ha, err := c.Shard(0).Submit(specA, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	ha2, err := c.Shard(0).Submit(specA2, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := c.Shard(1).Submit(specB, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hb.Decision().Kind != "bus-share" {
		t.Fatalf("shard 1 decision = %q, want bus-share", hb.Decision().Kind)
	}
	// Hold one more reference, as a prober would, so the state outlives
	// every member and its retirement can only come from a failure path.
	st := c.Shard(0).Exchange().LookupBuildState(key)
	if st == nil || !st.Attach() {
		t.Fatal("owner's build state not on the bus")
	}
	c.Start()
	if _, err := waitWithin(t, hb); !errors.Is(err, errBuildBoom) {
		t.Errorf("failing prober: err = %v, want its chain's failure", err)
	}
	ra, err := waitWithin(t, ha)
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, "owner member", ra, 0, 32)
	ra2, err := waitWithin(t, ha2)
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, "owner member 2", ra2, 8, 32)
	if st.Retired() {
		t.Fatal("a prober's local failure retired the owner's build state")
	}
	if n := c.Shard(0).Counters(); n.HashBuilds != 1 || n.BuildJoins != 1 {
		t.Errorf("owner shard: HashBuilds=%d BuildJoins=%d, want 1, 1", n.HashBuilds, n.BuildJoins)
	}
	if !st.Release() {
		t.Error("releasing the last reference did not retire the sealed state")
	}
}
