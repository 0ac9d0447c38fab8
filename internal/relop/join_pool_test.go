package relop

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// pooledJoin runs one private HashJoin of the joinDiff schemas — build,
// FinishBuild, probe, Finish — and returns what it emitted and the store its
// table held, which Finish has just recycled.
func pooledJoin(t *testing.T, kind JoinKind, hint int, build, probe []*storage.Batch) (*storage.Batch, *buildStore) {
	t.Helper()
	hj, err := NewHashJoinSized(kind, joinDiffBuild, "bk", joinDiffProbe, "pk", hint, nil)
	if err != nil {
		t.Fatal(err)
	}
	emit, got := Collect(hj.OutSchema())
	hj.SetEmit(emit)
	for _, b := range build {
		if err := hj.PushBuild(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := hj.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	st := hj.build.tbl.store
	for _, p := range probe {
		if err := hj.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := hj.Finish(); err != nil {
		t.Fatal(err)
	}
	if hj.build.tbl.store != nil {
		t.Fatal("Finish left the private table's store in place")
	}
	return got(), st
}

// A warm private build allocates nothing: the store, key table included,
// comes back out of the pool at its last size, and the probe-free Finish
// hands it straight back.
func TestHashJoinWarmBuildAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	build, _ := joinDiffCase{buildPages: []int{300, 300, 50}, buildKeys: 200}.build(rand.New(rand.NewSource(1)))
	const runs = 50
	joins := make([]*HashJoin, runs+2)
	for i := range joins {
		hj, err := NewHashJoinSized(Inner, joinDiffBuild, "bk", joinDiffProbe, "pk", 650, nil)
		if err != nil {
			t.Fatal(err)
		}
		joins[i] = hj
	}
	next := 0
	cycle := func() {
		hj := joins[next]
		next++
		for _, b := range build {
			if err := hj.PushBuild(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := hj.FinishBuild(); err != nil {
			t.Fatal(err)
		}
		if err := hj.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the pool
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("warm PushBuild/FinishBuild/Finish allocates %v times per build, want 0", allocs)
	}
}

// Recycled storage is clean: builds of every size, with every join kind,
// cycle through one layout's pool — larger and smaller than the store they
// inherit, empty, and with more distinct keys than the pooled key table
// holds — and each one still matches the nested loop exactly.
func TestHashJoinRecycledStorageIsClean(t *testing.T) {
	steps := []struct {
		c    joinDiffCase
		hint int
	}{
		{joinDiffCase{buildPages: []int{400, 400, 400}, probePage: []int{200}, buildKeys: 700, probeKeys: 900}, 0},
		{joinDiffCase{buildPages: []int{30}, probePage: []int{40, 40}, buildKeys: 6, probeKeys: 8}, 0},
		{joinDiffCase{buildPages: []int{90, 90}, probePage: []int{60}, buildKeys: 40, probeKeys: 50, probeShift: -5}, 4096},
		{joinDiffCase{probePage: []int{25}, buildKeys: 4, probeKeys: 4}, 0},
		{joinDiffCase{buildPages: []int{7}, probePage: []int{30}, buildKeys: 1, probeKeys: 3}, 2},
		// 1 500 near-unique keys overflow the 700-key table of the first
		// build, so the recycled key table must grow mid-build.
		{joinDiffCase{buildPages: []int{750, 750}, probePage: []int{300}, buildKeys: 1 << 40, probeKeys: 1 << 40}, 0},
		{joinDiffCase{buildPages: []int{12, 12}, probePage: []int{24}, buildKeys: 3, probeKeys: 5}, 0},
		{joinDiffCase{buildPages: []int{0, 0}, probePage: []int{10}, buildKeys: 2, probeKeys: 2}, 0},
	}
	kinds := []JoinKind{Inner, Semi, Anti, LeftOuter}
	reused := 0
	var last *buildStore
	for i, s := range steps {
		build, probe := s.c.build(rand.New(rand.NewSource(int64(i + 1))))
		pairs := nlPairs(t, build, probe)
		// Two kinds per step walk every kind through the pool twice.
		for _, kind := range []JoinKind{kinds[i%4], kinds[(i+1)%4]} {
			got, st := pooledJoin(t, kind, s.hint, build, probe)
			if err := sameBatch(got, nlReference(t, kind, pairs, probe)); err != nil {
				t.Fatalf("step %d %v: %v", i, kind, err)
			}
			if st == last {
				reused++
			}
			last = st
		}
	}
	if !raceEnabled && reused == 0 {
		t.Error("no build reused the previous build's store; the pool never served a warm build")
	}
}

// A table handed out by Table or MatchCounts before Finish escapes the
// join: Finish leaves it in place, and it still reads right afterwards.
func TestHashJoinEscapedTableIsNotRecycled(t *testing.T) {
	build, probe := joinDiffCase{buildPages: []int{50, 50}, probePage: []int{40}, buildKeys: 20, probeKeys: 30}.build(rand.New(rand.NewSource(7)))
	for _, how := range []string{"Table", "MatchCounts"} {
		t.Run(how, func(t *testing.T) {
			hj, err := NewHashJoin(Inner, joinDiffBuild, "bk", joinDiffProbe, "pk", func(*storage.Batch) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range build {
				if err := hj.PushBuild(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := hj.FinishBuild(); err != nil {
				t.Fatal(err)
			}
			keys := probe[0].Vecs[1].I64
			var counts []int64
			switch how {
			case "Table":
				hj.Table()
			case "MatchCounts":
				counts = hj.MatchCounts(keys)
			}
			for _, p := range probe {
				if err := hj.Push(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := hj.Finish(); err != nil {
				t.Fatal(err)
			}
			tbl := hj.build.tbl
			if tbl.store == nil {
				t.Fatal("Finish recycled a table that had escaped")
			}
			checkTableAgainstBuckets(t, tbl, probe)
			if counts != nil {
				after := hj.MatchCounts(keys)
				for i := range counts {
					if after[i] != counts[i] {
						t.Fatalf("MatchCounts after Finish: key %d counts %d, before %d", keys[i], after[i], counts[i])
					}
				}
			}
		})
	}
}

// Recycle hands the store back once, then is a no-op; a read of a recycled
// table fails loudly instead of seeing another build's rows.
func TestHashTableRecycleIsIdempotent(t *testing.T) {
	build, _ := joinDiffCase{buildPages: []int{64}, buildKeys: 16}.build(rand.New(rand.NewSource(3)))
	jb, err := NewJoinBuild(joinDiffBuild, "bk")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range build {
		if err := jb.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := jb.Finish(); err != nil {
		t.Fatal(err)
	}
	tbl := jb.Table()
	st := tbl.store
	tbl.Recycle()
	if tbl.store != nil || tbl.Rows().Vecs != nil || tbl.rowIDs != nil {
		t.Fatal("Recycle left the table's storage reachable")
	}
	for i, v := range st.vecs {
		if v.Len() != 0 {
			t.Fatalf("recycled column %d holds %d rows, want 0", i, v.Len())
		}
	}
	// Stand in for the next build, which may own the store by now: a second
	// Recycle must not touch it.
	st.vecs[0].I64 = append(st.vecs[0].I64, 42)
	tbl.Recycle()
	if st.vecs[0].Len() != 1 {
		t.Fatal("a second Recycle reset the store again")
	}
	st.vecs[0].I64 = st.vecs[0].I64[:0]
	defer func() {
		if recover() == nil {
			t.Error("Matches on a recycled table did not panic")
		}
	}()
	tbl.Matches(0)
}

// FuzzJoin runs two to four private hash joins back to back through one
// layout's store pool, each of any kind, build size, key spread and hint,
// and holds every one to the nested-loop join. Every join after the first
// inherits the store the one before it recycled, so stale rows, keys or
// index entries left in a store show up as a mismatch. The committed corpus
// (testdata/fuzz/FuzzJoin) covers a build smaller than the last, empty
// builds, key counts that outgrow the recycled key table, and build keys
// that arrive sorted (bit 2 of a join's kind byte), in runs of equal keys.
func FuzzJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, joins uint8, plan []byte) {
		rng := rand.New(rand.NewSource(seed))
		at := func(i int) int {
			if len(plan) == 0 {
				return 0
			}
			return int(plan[i%len(plan)])
		}
		n := 2 + int(joins)%3
		for j := 0; j < n; j++ {
			p := 5 * j
			kind := JoinKind(at(p) % 4)
			c := joinDiffCase{buildKeys: int64(1 + at(p+2)), probeKeys: int64(1 + at(p+2) + at(p+3)%16), sorted: at(p)&4 != 0}
			if at(p+2) == 255 {
				c.buildKeys, c.probeKeys = 1<<40, 1<<40
			}
			for rows := at(p + 1); rows > 0; {
				page := 1 + rng.Intn(rows)
				c.buildPages = append(c.buildPages, page)
				rows -= page
			}
			c.probePage = []int{at(p+3) % 48, at(p+4) % 24}
			hint := []int{0, at(p+1) / 4, 4 * at(p+1)}[at(p+4)%3]
			build, probe := c.build(rng)
			got, _ := pooledJoin(t, kind, hint, build, probe)
			if err := sameBatch(got, nlReference(t, kind, nlPairs(t, build, probe), probe)); err != nil {
				t.Fatalf("join %d (%v, %d build rows in %d pages, hint %d): %v", j, kind, at(p+1), len(c.buildPages), hint, err)
			}
		}
	})
}
