package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relop"
	"repro/internal/storage"
)

// attachAlways admits every join and every attach; attachNever admits
// submit-time joins but refuses every in-flight attach.
type attachAlways struct{}

func (attachAlways) ShouldJoin(core.Query, int) bool                  { return true }
func (attachAlways) ShouldAttach(_ core.Query, _ int, f float64) bool { return f > 0 }

type attachNever struct{}

func (attachNever) ShouldJoin(core.Query, int) bool            { return true }
func (attachNever) ShouldAttach(core.Query, int, float64) bool { return false }

// joinOnly implements only SharePolicy: in-flight groups must refuse it.
type joinOnly struct{}

func (joinOnly) ShouldJoin(core.Query, int) bool { return true }

// scanTable builds an Int64 single-column table with values 0..rows-1.
func scanTable(t *testing.T, rows int) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("t", storage.MustSchema(storage.Column{Name: "v", Type: storage.Int64}))
	for i := 0; i < rows; i++ {
		tbl.MustAppend(int64(i))
	}
	return tbl
}

// scanSpec is a bare scan query: the scan is pivot and root at once, so the
// sink receives every scanned page directly.
func scanSpec(tbl *storage.Table, pageRows int) QuerySpec {
	return QuerySpec{
		Signature: "scan/t",
		Pivot:     0,
		Nodes:     []NodeSpec{ScanNode("t/scan", tbl, nil, []string{"v"}, pageRows)},
	}
}

// sumResult checks a result holds each of 0..rows-1 exactly once (order
// free: in-flight joiners see the table rotated).
func sumResult(t *testing.T, b *storage.Batch, rows int) {
	t.Helper()
	if b.Len() != rows {
		t.Fatalf("result has %d rows, want %d", b.Len(), rows)
	}
	seen := make([]int, rows)
	for _, v := range b.MustCol("v").I64 {
		if v < 0 || v >= int64(rows) {
			t.Fatalf("result contains %d, outside 0..%d", v, rows-1)
		}
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("row %d delivered %d times, want exactly once", v, n)
		}
	}
}

// TestInflightAttachBeforeStart pins the deterministic case: with the
// engine paused, the second submission attaches to the first group's
// circular scan at position 0 and both members see the full table.
func TestInflightAttachBeforeStart(t *testing.T) {
	const rows = 512
	tbl := scanTable(t, rows)
	e, err := New(Options{Workers: 2, FanOut: FanOutClone, StartPaused: true, InflightSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := scanSpec(tbl, 32)
	h1, err := e.Submit(spec, attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(spec, attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().InflightAttaches; got != 1 {
		t.Errorf("InflightAttaches before start = %d, want 1", got)
	}
	e.Start()
	for _, h := range []*Handle{h1, h2} {
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sumResult(t, res, rows)
	}
	if e.Exchange().InFlight() != 0 {
		t.Errorf("registry still tracks %d scans after completion", e.Exchange().InFlight())
	}
}

// gateOp passes pages through unchanged, but each Push first waits for the
// gate channel to close. Blocking inside Push parks one scheduler worker,
// so gated tests need Workers >= 2.
type gateOp struct {
	schema storage.Schema
	gate   <-chan struct{}
	emit   relop.Emit
}

func (g *gateOp) OutSchema() storage.Schema { return g.schema }
func (g *gateOp) Push(b *storage.Batch) error {
	<-g.gate
	return g.emit(b)
}
func (g *gateOp) Finish() error { return nil }

// TestInflightLateJoinerWrapAround submits a second query after the first
// group's scan has demonstrably advanced: the joiner must attach mid-flight,
// consume to the end, and recover its missed prefix on the wrap-around lap.
// The first member's private chain is gated shut, so backpressure parks the
// scan mid-table deterministically — the attach cannot race the scan's
// completion no matter how fast the host is.
func TestInflightLateJoinerWrapAround(t *testing.T) {
	const rows = 20000
	const pageRows = 16
	tbl := scanTable(t, rows)
	e, err := New(Options{Workers: 2, FanOut: FanOutClone, InflightSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gate := make(chan struct{})
	schema := storage.MustSchema(storage.Column{Name: "v", Type: storage.Int64})
	gated := QuerySpec{
		Signature: "scan/t",
		Pivot:     0,
		Nodes: []NodeSpec{
			ScanNode("t/scan", tbl, nil, []string{"v"}, pageRows),
			{Name: "t/gate", Input: 0, Op: func(emit relop.Emit) (relop.Operator, error) {
				return &gateOp{schema: schema, gate: gate, emit: emit}, nil
			}},
		},
	}
	h1, err := e.Submit(gated, attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	// The scan registers in the work exchange under the group's share key.
	cs := e.Exchange().Lookup(ShareKey(gated))
	if cs == nil {
		t.Fatal("scan not published in the registry")
	}
	// With the gate shut the member's head queue fills and the scan parks a
	// bounded number of quanta in — far past 64 rows, far short of the end.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if pos, lap := cs.Progress(); pos > 64 || lap > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scan made no progress")
		}
		time.Sleep(20 * time.Microsecond)
	}
	// The joiner's scan prefix fingerprints identically (same declared
	// scan), so it attaches mid-flight despite its different private chain.
	h2, err := e.Submit(scanSpec(tbl, pageRows), attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().InflightAttaches; got != 1 {
		t.Fatalf("InflightAttaches = %d, want 1 (scan had %d of %d rows left)",
			got, rows-func() int { p, _ := cs.Progress(); return p }(), rows)
	}
	close(gate)
	for _, h := range []*Handle{h1, h2} {
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sumResult(t, res, rows)
	}
}

// TestInflightRefusedRunsIndependently: when the attach policy declines,
// the newcomer starts its own group and both queries still complete.
func TestInflightRefusedRunsIndependently(t *testing.T) {
	const rows = 2048
	tbl := scanTable(t, rows)
	e, err := New(Options{Workers: 2, FanOut: FanOutClone, StartPaused: true, InflightSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := scanSpec(tbl, 16)
	h1, err := e.Submit(spec, attachNever{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(spec, attachNever{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().InflightAttaches; got != 0 {
		t.Errorf("InflightAttaches = %d, want 0", got)
	}
	e.Start()
	for _, h := range []*Handle{h1, h2} {
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sumResult(t, res, rows)
	}
}

// TestInflightRequiresAttachPolicy: a plain SharePolicy cannot join an
// in-flight group; the engine falls back to a fresh group rather than
// violating the sealed-at-first-emit contract the policy was written for.
func TestInflightRequiresAttachPolicy(t *testing.T) {
	const rows = 256
	tbl := scanTable(t, rows)
	e, err := New(Options{Workers: 2, StartPaused: true, InflightSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := scanSpec(tbl, 16)
	h1, err := e.Submit(spec, joinOnly{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(spec, joinOnly{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().InflightAttaches; got != 0 {
		t.Errorf("InflightAttaches = %d, want 0 for a join-only policy", got)
	}
	e.Start()
	for _, h := range []*Handle{h1, h2} {
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sumResult(t, res, rows)
	}
}

// TestInflightDisabledUsesSubmitTimeGroups: without the option, ScanNode
// pivots behave exactly like opaque sources (submission-time sealing).
func TestInflightDisabledUsesSubmitTimeGroups(t *testing.T) {
	const rows = 256
	tbl := scanTable(t, rows)
	e, err := New(Options{Workers: 2, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := scanSpec(tbl, 16)
	if _, err := e.Submit(spec, attachAlways{}); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	g := e.joinable[ShareKey(spec)]
	e.mu.Unlock()
	if g == nil || g.inflight != nil {
		t.Fatal("inflight machinery built despite InflightSharing=false")
	}
	if e.Exchange().InFlight() != 0 {
		t.Error("scan published despite InflightSharing=false")
	}
}

// TestScanSpecValidateNilTable: a declared scan without a table must be
// rejected by Validate, not panic inside Submit.
func TestScanSpecValidateNilTable(t *testing.T) {
	spec := QuerySpec{
		Signature: "nil/t",
		Pivot:     0,
		Nodes:     []NodeSpec{ScanNode("t/scan", nil, nil, nil, 0)},
	}
	if err := spec.Validate(); err == nil {
		t.Fatal("nil-table scan passed validation")
	}
}

// failOp errors on the first page it sees.
type failOp struct {
	schema storage.Schema
	err    error
}

func (f failOp) OutSchema() storage.Schema { return f.schema }
func (f failOp) Push(*storage.Batch) error { return f.err }
func (f failOp) Finish() error             { return nil }

// TestInflightMemberFailureAbortsGroup: a dying member chain must not wedge
// the shared circular scan. The group aborts (every member resolves with
// the error), the scan leaves the registry, and the signature is free for
// a fresh, working group.
func TestInflightMemberFailureAbortsGroup(t *testing.T) {
	const rows = 2048
	tbl := scanTable(t, rows)
	boom := fmt.Errorf("member exploded")
	okSpec := scanSpec(tbl, 16)
	badSpec := QuerySpec{
		Signature: okSpec.Signature, // merges with the healthy member's group
		Pivot:     0,
		Nodes: []NodeSpec{
			okSpec.Nodes[0],
			{Name: "t/fail", Input: 0, Op: func(relop.Emit) (relop.Operator, error) {
				return failOp{schema: storage.MustSchema(storage.Column{Name: "v", Type: storage.Int64}), err: boom}, nil
			}},
		},
	}
	e, err := New(Options{Workers: 2, FanOut: FanOutClone, StartPaused: true, InflightSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h1, err := e.Submit(okSpec, attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(badSpec, attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i, h := range []*Handle{h1, h2} {
		if _, err := h.Wait(); err == nil {
			t.Errorf("member %d finished without the group error", i+1)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Exchange().InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("aborted scan never left the registry")
		}
		time.Sleep(50 * time.Microsecond)
	}
	// The signature must be reusable: a fresh submission starts a clean
	// group and completes.
	h3, err := e.Submit(okSpec, attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h3.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sumResult(t, res, rows)
}

// TestInflightAggChain runs the realistic shape — scan pivot feeding a
// private aggregation chain — with a mid-flight joiner, checking both
// members aggregate the identical full table.
func TestInflightAggChain(t *testing.T) {
	const rows = 4096
	tbl := scanTable(t, rows)
	scanSchema := storage.MustSchema(storage.Column{Name: "v", Type: storage.Int64})
	spec := QuerySpec{
		Signature: "agg/t",
		Pivot:     0,
		Nodes: []NodeSpec{
			ScanNode("t/scan", tbl, nil, []string{"v"}, 16),
			{Name: "t/agg", Input: 0, Op: func(emit relop.Emit) (relop.Operator, error) {
				return relop.NewHashAgg(scanSchema, nil, []relop.AggSpec{
					{Func: relop.Sum, Expr: relop.Col("v"), As: "total"},
					{Func: relop.Count, As: "cnt"},
				}, emit)
			}},
		},
	}
	e, err := New(Options{Workers: 2, FanOut: FanOutClone, StartPaused: true, InflightSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h1, err := e.Submit(spec, attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(spec, attachAlways{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	wantSum := float64(rows) * float64(rows-1) / 2
	for _, h := range []*Handle{h1, h2} {
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("agg result has %d rows, want 1", res.Len())
		}
		if got := res.MustCol("total").F64[0]; got != wantSum {
			t.Errorf("sum = %v, want %v", got, wantSum)
		}
		if got := res.MustCol("cnt").I64[0]; got != int64(rows) {
			t.Errorf("count = %v, want %d", got, rows)
		}
	}
}
