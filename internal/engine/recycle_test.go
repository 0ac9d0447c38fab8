package engine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/relop"
	"repro/internal/storage"
)

// The build tables' storage is recycled at one point only: the release that
// retires a shared build state in an engine without a keep-alive cache. A
// recycled table reads as one with no row vectors (Recycle nils them).

var recycleBuildSchema = storage.MustSchema(storage.Column{Name: "bv", Type: storage.Int64})

func recycled(tbl *relop.HashTable) bool { return tbl.Rows().Vecs == nil }

// sealedTestShare publishes a share over a table of the build values
// 0..rows-1, with probers attached before the seal.
func sealedTestShare(t *testing.T, recycle bool, probers, rows int) (*buildShare, *relop.HashTable) {
	t.Helper()
	x := storage.NewExchange()
	bs := &buildShare{key: "recycle/k", state: x.PublishBuildState("recycle/k"), recycle: recycle}
	for i := 0; i < probers; i++ {
		if !bs.attachProber() {
			t.Fatal("fresh build state refused a prober")
		}
	}
	jb, err := relop.NewJoinBuild(recycleBuildSchema, "bv")
	if err != nil {
		t.Fatal(err)
	}
	page := storage.NewBatch(recycleBuildSchema, rows)
	for i := 0; i < rows; i++ {
		page.Vecs[0].AppendInt(int64(i))
	}
	if err := jb.Push(page); err != nil {
		t.Fatal(err)
	}
	if err := jb.Finish(); err != nil {
		t.Fatal(err)
	}
	tbl := jb.Table()
	bs.seal(tbl)
	return bs, tbl
}

// A shared build with no cache keeps its table through every release but
// the last, and recycles it at that one.
func TestSharedBuildRecyclesAtLastRelease(t *testing.T) {
	bs, tbl := sealedTestShare(t, true, 3, 64)
	for i := 0; i < 2; i++ {
		bs.releaseProber()
		if recycled(tbl) {
			t.Fatalf("table recycled after release %d of 3", i+1)
		}
	}
	bs.releaseProber()
	if !recycled(tbl) {
		t.Fatal("the last release did not recycle the table")
	}
	if !bs.state.Retired() {
		t.Fatal("the last release did not retire the state")
	}
}

// A share that may hand its table to the cache, and one retired by a sweep
// while unreferenced, never recycle.
func TestSharedBuildNotRecycledOffTheReleasePath(t *testing.T) {
	bs, tbl := sealedTestShare(t, false, 1, 64)
	bs.releaseProber()
	if recycled(tbl) {
		t.Fatal("a share with a keep-alive hand-off recycled its table")
	}

	bs, tbl = sealedTestShare(t, true, 1, 64)
	bs.state.Retire() // an owner retire, as the sweep does
	bs.releaseProber()
	if recycled(tbl) {
		t.Fatal("the release after an owner retire recycled the table")
	}
}

// A member that fails after the seal retires the state while another prober
// is mid-probe. The survivor keeps reading the table to the end with a
// correct result, and the table is never recycled — not by the failing
// member's release, and not by the survivor's last one.
func TestFailedShareNotRecycledUnderSurvivingProbe(t *testing.T) {
	const rows = 4096
	bs, tbl := sealedTestShare(t, true, 2, rows/2)
	probeSchema := storage.MustSchema(storage.Column{Name: "pv", Type: storage.Int64})
	pr, err := relop.NewHashJoinProbe(relop.Semi, recycleBuildSchema, "bv", probeSchema, "pv", nil)
	if err != nil {
		t.Fatal(err)
	}
	emit, got := relop.Collect(pr.OutSchema())
	pr.SetEmit(emit)
	if err := pr.AttachTable(tbl); err != nil {
		t.Fatal(err)
	}
	var pages []*storage.Batch
	for lo := 0; lo < rows; lo += 256 {
		p := storage.NewBatch(probeSchema, 256)
		for v := lo; v < lo+256; v++ {
			p.Vecs[0].AppendInt(int64(v))
		}
		pages = append(pages, p)
	}
	midway, failed := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer bs.releaseProber()
		for i, p := range pages {
			if i == len(pages)/2 {
				close(midway)
				<-failed
			}
			if err := pr.Push(p); err != nil {
				t.Error(err)
				return
			}
		}
		if err := pr.Finish(); err != nil {
			t.Error(err)
		}
	}()
	<-midway
	bs.failShare()
	bs.releaseProber()
	close(failed)
	wg.Wait()
	if recycled(tbl) {
		t.Fatal("a table retired by failShare was recycled")
	}
	wantRange(t, "survivor", got(), 0, rows/2)
}

// recyclingSpec is semiSpec with its build factory recording every table
// the engine builds.
func recyclingSpec(bt, pt *storage.Table, sig string, probePred relop.Pred, mu *sync.Mutex, builds *[]*relop.JoinBuild) QuerySpec {
	spec := semiSpec(bt, pt, sig, probePred)
	spec.Nodes[2].Build = func() (*relop.JoinBuild, error) {
		jb, err := relop.NewJoinBuild(recycleBuildSchema, "bv")
		mu.Lock()
		*builds = append(*builds, jb)
		mu.Unlock()
		return jb, err
	}
	return spec
}

// End to end: two queries share one build. Without a cache, the table is
// recycled once both have completed; with one, it is cached and never
// recycled, a later query served from the cache reads it intact, and it
// was built in fresh storage rather than a larger pooled store.
func TestEngineSharedBuildRecycling(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	const bigRows = 1 << 16
	for _, withCache := range []bool{false, true} {
		// Fill the layout's pool with stores far larger than this build
		// needs, more than one so that a worker on another processor can
		// take one too.
		for i := 0; i < 4; i++ {
			_, big := sealedTestShare(t, false, 0, bigRows)
			big.Recycle()
		}
		var mu sync.Mutex
		var builds []*relop.JoinBuild
		opts := Options{Workers: 2, StartPaused: true}
		if withCache {
			opts.Cache = artifact.New(artifact.Config{BudgetBytes: 1 << 20, TTL: time.Minute})
		}
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		specA := recyclingSpec(bt, pt, "rc/a", relop.Cmp{Op: relop.Lt, L: relop.Col("pv"), R: relop.ConstInt{V: 32}}, &mu, &builds)
		specB := recyclingSpec(bt, pt, "rc/b", relop.Cmp{Op: relop.Ge, L: relop.Col("pv"), R: relop.ConstInt{V: 16}}, &mu, &builds)
		ha, err := e.Submit(specA, buildAnchor{idx: 1})
		if err != nil {
			t.Fatal(err)
		}
		hb, err := e.Submit(specB, buildAnchor{idx: 1})
		if err != nil {
			t.Fatal(err)
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
		wantRange(t, "variant A", ra, 0, 32)
		wantRange(t, "variant B", rb, 16, 32)
		if len(builds) != 1 || e.HashBuilds() != 1 {
			t.Fatalf("cache=%v: %d builds constructed, %d executed, want 1 shared build", withCache, len(builds), e.HashBuilds())
		}
		tbl := builds[0].Table()
		if got := recycled(tbl); got == withCache {
			t.Errorf("cache=%v: table recycled = %v after its last release", withCache, got)
		}
		if withCache {
			if c := cap(tbl.Rows().Vecs[0].I64); c >= bigRows {
				t.Errorf("the cached table holds a pooled store of %d rows for a %d-row build", c, tbl.Len())
			}
			// The next arrival probes the cached table; it must read intact.
			rc, err := e.Submit(specA, buildAnchor{idx: 1})
			if err != nil {
				t.Fatal(err)
			}
			r, err := rc.Wait()
			if err != nil {
				t.Fatal(err)
			}
			wantRange(t, "cached rerun", r, 0, 32)
			if e.HashBuilds() != 1 || recycled(tbl) {
				t.Errorf("cached rerun: HashBuilds = %d (want 1), recycled = %v (want false)", e.HashBuilds(), recycled(tbl))
			}
		}
		e.Close()
	}
}
