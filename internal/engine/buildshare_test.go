package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/relop"
	"repro/internal/storage"
)

// buildAnchor joins anything and anchors fresh groups at a fixed candidate
// index — tests pin it at the build-side option.
type buildAnchor struct{ idx int }

func (buildAnchor) ShouldJoin(core.Query, int) bool            { return true }
func (p buildAnchor) ChoosePivot([]core.Query, int) int        { return p.idx }
func (buildAnchor) ShouldAttach(core.Query, int, float64) bool { return false }

// buildTables returns a build table (values 0..buildRows-1) and a probe
// table (values 0..probeRows-1), distinct columns so the join schemas line
// up.
func buildTables(t *testing.T, buildRows, probeRows int) (*storage.Table, *storage.Table) {
	t.Helper()
	bt := storage.NewTable("bt", storage.MustSchema(storage.Column{Name: "bv", Type: storage.Int64}))
	for i := 0; i < buildRows; i++ {
		bt.MustAppend(int64(i))
	}
	pt := storage.NewTable("pt", storage.MustSchema(storage.Column{Name: "pv", Type: storage.Int64}))
	for i := 0; i < probeRows; i++ {
		pt.MustAppend(int64(i))
	}
	return bt, pt
}

// semiSpec is a semi-join of a shared build scan against a per-variant probe
// scan: nodes [build scan, probe scan, join(split forms)], join as root,
// with the join and the build side offered as pivot candidates.
func semiSpec(bt, pt *storage.Table, sig string, probePred relop.Pred) QuerySpec {
	buildSchema := storage.MustSchema(storage.Column{Name: "bv", Type: storage.Int64})
	probeSchema := storage.MustSchema(storage.Column{Name: "pv", Type: storage.Int64})
	return QuerySpec{
		Signature: sig,
		Pivot:     2,
		Pivots: []PivotOption{
			{Pivot: 2},
			// The build candidate carries a nominal work model so keep-alive
			// retention (which prices the rebuild a cache hit saves) has a
			// positive benefit; sharing tests ignore it.
			{Pivot: 0, Build: true, Model: core.Query{
				Name: sig + "@build", PivotW: 2, PivotS: 0.01, Above: []float64{1},
			}},
		},
		Nodes: []NodeSpec{
			ScanNode(sig+"/build-scan", bt, nil, []string{"bv"}, 16),
			ScanNode(sig+"/probe-scan", pt, probePred, []string{"pv"}, 16),
			{
				Name:        sig + "/join",
				Fingerprint: "semi(bv=pv)",
				BuildInput:  0,
				ProbeInput:  1,
				Join: func(emit relop.Emit) (JoinOperator, error) {
					return relop.NewHashJoin(relop.Semi, buildSchema, "bv", probeSchema, "pv", emit)
				},
				Build: func() (*relop.JoinBuild, error) {
					return relop.NewJoinBuild(buildSchema, "bv")
				},
				Probe: func(emit relop.Emit) (ProbeOperator, error) {
					return relop.NewHashJoinProbe(relop.Semi, buildSchema, "bv", probeSchema, "pv", emit)
				},
			},
		},
	}
}

// wantRange asserts the result holds exactly the values lo..hi-1 (in any
// order).
func wantRange(t *testing.T, what string, b *storage.Batch, lo, hi int64) {
	t.Helper()
	if b.Len() != int(hi-lo) {
		t.Fatalf("%s: %d rows, want %d", what, b.Len(), hi-lo)
	}
	seen := make(map[int64]bool)
	for _, v := range b.MustCol("pv").I64 {
		if v < lo || v >= hi || seen[v] {
			t.Fatalf("%s: unexpected or duplicate value %d", what, v)
		}
		seen[v] = true
	}
}

// Two different-variant join queries anchored at the build side execute
// exactly one hash build: the anchor opens a pure build group, the second
// variant fingerprint-matches the build subplan (its probe side differs, so
// no other level matches), and both probe the one table privately.
func TestBuildShareTwoQueriesOneBuild(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, err := New(Options{Workers: 2, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	specA := semiSpec(bt, pt, "bs/a", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}})
	specB := semiSpec(bt, pt, "bs/b", relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: 16}})

	// Anchor at the build candidate (index 1: candidates are ordered join
	// level first).
	ha, err := e.Submit(specA, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := BuildShareKey(specA, 0)
	if got := e.GroupSize(key); got != 1 {
		t.Fatalf("build group size after anchor = %d, want 1", got)
	}
	hb, err := e.Submit(specB, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.GroupSize(key); got != 2 {
		t.Fatalf("build group size after join = %d, want 2", got)
	}
	e.Start()
	ra, err := ha.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := hb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Build holds 0..31; variant A probes 0..31, variant B probes 16..63.
	wantRange(t, "variant A", ra, 0, 32)
	wantRange(t, "variant B", rb, 16, 32)
	if got := e.Counters().HashBuilds; got != 1 {
		t.Errorf("HashBuilds = %d, want exactly 1 shared build", got)
	}
	if got := e.Counters().BuildJoins; got != 1 {
		t.Errorf("BuildJoins = %d, want 1", got)
	}
	if got := e.Counters().PivotJoins[0]; got != 1 {
		t.Errorf("PivotLevelJoins[0] = %d, want 1", got)
	}
}

// A group anchored at the join pivot with a build candidate inside its
// shared subtree runs its join split and publishes the table (a mixed
// group): identical queries merge at the join, a different variant attaches
// to the build — one hash build total, sharing at the highest level each
// pair of plans permits.
func TestBuildShareMixedGroup(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, err := New(Options{Workers: 2, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	specA := semiSpec(bt, pt, "bsm/a", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}})
	specB := semiSpec(bt, pt, "bsm/b", relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: 16}})

	// joinOnly has no ChoosePivot, so the anchor stays at the declared join
	// pivot — the mixed-group path.
	h1, err := e.Submit(specA, joinOnly{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical variant: merges at the join level (whole-plan sharing).
	h2, err := e.Submit(specA, joinOnly{})
	if err != nil {
		t.Fatal(err)
	}
	// Different variant: only the build subplan matches.
	h3, err := e.Submit(specB, joinOnly{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r1, err := h1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r3, err := h3.Wait()
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, "member 1", r1, 0, 32)
	wantRange(t, "member 2", r2, 0, 32)
	wantRange(t, "variant B", r3, 16, 32)
	if got := e.Counters().HashBuilds; got != 1 {
		t.Errorf("HashBuilds = %d, want exactly 1 shared build", got)
	}
	if got := e.Counters().BuildJoins; got != 1 {
		t.Errorf("BuildJoins = %d, want 1", got)
	}
	if got := e.Counters().PivotJoins[2]; got != 1 {
		t.Errorf("PivotLevelJoins[2] = %d, want 1 (identical variant at the join)", got)
	}
}

// A sealed table retires when its last prober releases it: the exchange
// entry disappears, the group stops being joinable, and a later arrival
// builds afresh.
func TestBuildStateRetiresWithLastProber(t *testing.T) {
	bt, pt := buildTables(t, 16, 16)
	e, err := New(Options{Workers: 2, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := semiSpec(bt, pt, "bsr/a", nil)
	h, err := e.Submit(spec, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Exchange().BuildStatesInFlight(); got != 1 {
		t.Fatalf("build states in flight = %d, want 1", got)
	}
	e.Start()
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := e.Exchange().BuildStatesInFlight(); got != 0 {
		t.Errorf("build states in flight after completion = %d, want 0", got)
	}
	// A fresh arrival cannot find the retired table; it runs a new build.
	h2, err := e.Submit(spec, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().HashBuilds; got != 2 {
		t.Errorf("HashBuilds = %d, want 2 (second arrival rebuilt)", got)
	}
}

// Members may attach after the build sealed — the table is immutable, late
// probers lose nothing — as long as an earlier prober still holds it live.
func TestBuildShareLateAttach(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	specA := semiSpec(bt, pt, "bsl/a", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}})
	key := BuildShareKey(specA, 0)
	ha, err := e.Submit(specA, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Attach repeatedly while the group lives; a running engine may seal the
	// build at any point in this loop, exercising both the pre-seal (parked
	// waiter) and post-seal (immediate) attach paths.
	var extras []*Handle
	for i := 0; i < 4; i++ {
		if e.GroupSize(key) == 0 {
			break // group retired already (all members done)
		}
		sig := "bsl/late"
		specB := semiSpec(bt, pt, sig, relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: int64(i)}})
		h, err := e.Submit(specB, buildAnchor{idx: 1})
		if err != nil {
			t.Fatal(err)
		}
		extras = append(extras, h)
	}
	ra, err := ha.Wait()
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, "anchor", ra, 0, 32)
	for i, h := range extras {
		r, err := h.Wait()
		if err != nil {
			t.Fatalf("late member %d: %v", i, err)
		}
		wantRange(t, "late member", r, int64(i), 32)
	}
	// However the timing fell, the builds executed plus the fresh groups
	// must account for every query exactly once; with at least one late
	// attach there are fewer builds than queries.
	builds, joins := e.Counters().HashBuilds, e.Counters().BuildJoins
	if int(builds)+int(joins) != 1+len(extras) {
		t.Errorf("builds=%d joins=%d for %d queries", builds, joins, 1+len(extras))
	}
}
