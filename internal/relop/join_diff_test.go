package relop

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// The hash join is checked against the nested-loop join: O(|probe|·|build|),
// one predicate evaluation per pair, obviously correct. NLJoin visits probe
// rows in order and, for each, build rows in arrival order — the order the
// hash join promises (Matches returns build rows in insertion order) — so
// the comparison is exact, order included.

var (
	joinDiffBuild = storage.MustSchema(
		storage.Column{Name: "bk", Type: storage.Int64},
		storage.Column{Name: "bf", Type: storage.Float64},
		storage.Column{Name: "bs", Type: storage.String},
		storage.Column{Name: "bd", Type: storage.Date},
	)
	// rid numbers the probe rows, so the reference can tell which probe rows
	// the nested loop matched.
	joinDiffProbe = storage.MustSchema(
		storage.Column{Name: "rid", Type: storage.Int64},
		storage.Column{Name: "pk", Type: storage.Int64},
		storage.Column{Name: "ps", Type: storage.String},
	)
)

type joinDiffCase struct {
	name                  string
	buildPages, probePage []int // rows per page
	buildKeys, probeKeys  int64 // keys are drawn from [0, n)
	probeShift            int64 // added to every probe key
	// sorted hands the build keys over in ascending order, so equal keys
	// arrive as runs, some of them straddling a page boundary.
	sorted bool
}

func joinDiffCases() []joinDiffCase {
	return []joinDiffCase{
		{name: "duplicate keys on both sides", buildPages: []int{40, 40, 7}, probePage: []int{30, 30}, buildKeys: 12, probeKeys: 16},
		{name: "unique-ish build keys", buildPages: []int{50, 50}, probePage: []int{64}, buildKeys: 1 << 40, probeKeys: 1 << 40},
		{name: "one hot key", buildPages: []int{90}, probePage: []int{20, 0, 20}, buildKeys: 1, probeKeys: 2},
		{name: "empty build", probePage: []int{25, 25}, buildKeys: 4, probeKeys: 4},
		{name: "empty build pages", buildPages: []int{0, 0}, probePage: []int{25}, buildKeys: 4, probeKeys: 4},
		{name: "empty probe", buildPages: []int{30}, buildKeys: 4, probeKeys: 4},
		{name: "empty probe pages", buildPages: []int{30}, probePage: []int{0, 0}, buildKeys: 4, probeKeys: 4},
		{name: "both empty", buildKeys: 1, probeKeys: 1},
		{name: "every probe misses", buildPages: []int{30, 30}, probePage: []int{40}, buildKeys: 8, probeKeys: 8, probeShift: 1000},
		{name: "negative keys", buildPages: []int{60}, probePage: []int{60}, buildKeys: 6, probeKeys: 6, probeShift: -3},
		{name: "table grows past its hint many times", buildPages: []int{400, 400, 400}, probePage: []int{200}, buildKeys: 700, probeKeys: 900},
		{name: "sorted build keys", buildPages: []int{100, 100, 37}, probePage: []int{64, 64}, buildKeys: 60, probeKeys: 70, probeShift: -5, sorted: true},
	}
}

func (c joinDiffCase) build(rng *rand.Rand) (build, probe []*storage.Batch) {
	for _, rows := range c.buildPages {
		b := storage.NewBatch(joinDiffBuild, rows)
		for r := 0; r < rows; r++ {
			k := rng.Int63n(c.buildKeys)
			if err := b.AppendRow(k, rng.Float64(), fmt.Sprintf("b%d", rng.Intn(50)), int64(rng.Intn(9000))); err != nil {
				panic(err)
			}
		}
		build = append(build, b)
	}
	if c.sorted {
		var keys []int64
		for _, b := range build {
			keys = append(keys, b.Vecs[0].I64...)
		}
		slices.Sort(keys)
		for _, b := range build {
			keys = keys[copy(b.Vecs[0].I64, keys):]
		}
	}
	rid := int64(0)
	for _, rows := range c.probePage {
		b := storage.NewBatch(joinDiffProbe, rows)
		for r := 0; r < rows; r++ {
			k := rng.Int63n(c.probeKeys) + c.probeShift
			if err := b.AppendRow(rid, k, fmt.Sprintf("p%d", rng.Intn(50))); err != nil {
				panic(err)
			}
			rid++
		}
		probe = append(probe, b)
	}
	return build, probe
}

// nlPairs runs the nested-loop join of probe (outer) against build (inner)
// on pk = bk: the probe columns, then bk bf bs bd, one row per matching pair.
func nlPairs(t *testing.T, build, probe []*storage.Batch) *storage.Batch {
	t.Helper()
	nl, err := NewNLJoin(joinDiffProbe, joinDiffBuild, Cmp{Op: Eq, L: Col("pk"), R: Col("bk")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	emit, pairs := Collect(nl.OutSchema())
	nl.SetEmit(emit)
	for _, b := range build {
		if err := nl.PushInner(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := nl.FinishInner(); err != nil {
		t.Fatal(err)
	}
	for _, p := range probe {
		if err := nl.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := nl.Finish(); err != nil {
		t.Fatal(err)
	}
	return pairs()
}

// nlReference derives what a join of the given kind must emit from the
// nested loop's matching pairs.
func nlReference(t *testing.T, kind JoinKind, matched *storage.Batch, probe []*storage.Batch) *storage.Batch {
	t.Helper()
	matchedRids := map[int64]bool{}
	for _, rid := range matched.Vecs[0].I64 {
		matchedRids[rid] = true
	}
	probeSchema, err := NewHashJoinProbe(kind, joinDiffBuild, "bk", joinDiffProbe, "pk", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := storage.NewBatch(probeSchema.OutSchema(), 0)
	pair := 0
	for _, p := range probe {
		for r := 0; r < p.Len(); r++ {
			rid := p.Vecs[0].I64[r]
			probeRow := []any{rid, p.Vecs[1].I64[r], p.Vecs[2].Str[r]}
			var row []any
			switch {
			case kind == Semi && matchedRids[rid], kind == Anti && !matchedRids[rid]:
				row = probeRow
			case kind == LeftOuter && !matchedRids[rid]:
				row = append(probeRow, 0.0, "", int64(0))
			}
			if row != nil {
				if err := want.AppendRow(row...); err != nil {
					t.Fatal(err)
				}
			}
			for ; pair < matched.Len() && matched.Vecs[0].I64[pair] == rid; pair++ {
				if kind != Inner && kind != LeftOuter {
					continue
				}
				// The nested loop keeps the build key column; the hash join
				// drops it as a duplicate of the probe key.
				row := append(probeRow[:3:3], matched.Vecs[4].F64[pair], matched.Vecs[5].Str[pair], matched.Vecs[6].I64[pair])
				if err := want.AppendRow(row...); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if pair != matched.Len() {
		t.Fatalf("reference consumed %d of %d nested-loop pairs", pair, matched.Len())
	}
	return want
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	for _, tc := range joinDiffCases() {
		for seed := int64(1); seed <= 3; seed++ {
			build, probe := tc.build(rand.New(rand.NewSource(seed)))
			// Seeds vary the pre-sizing too: none, too small, generous.
			jb, err := NewJoinBuildSized(joinDiffBuild, "bk", []int{0, 5, 4096}[seed-1])
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
			pairs := nlPairs(t, build, probe)
			t.Run(fmt.Sprintf("%s/seed %d/table", tc.name, seed), func(t *testing.T) {
				checkTableAgainstBuckets(t, tbl, probe)
			})
			for _, kind := range []JoinKind{Inner, Semi, Anti, LeftOuter} {
				t.Run(fmt.Sprintf("%s/seed %d/%v", tc.name, seed, kind), func(t *testing.T) {
					pr, err := NewHashJoinProbe(kind, joinDiffBuild, "bk", joinDiffProbe, "pk", nil)
					if err != nil {
						t.Fatal(err)
					}
					emit, got := Collect(pr.OutSchema())
					pr.SetEmit(func(b *storage.Batch) error {
						if b.Len() == 0 {
							t.Error("probe emitted an empty page")
						}
						return emit(b)
					})
					if err := pr.AttachTable(tbl); err != nil {
						t.Fatal(err)
					}
					for _, p := range probe {
						if err := pr.Push(p); err != nil {
							t.Fatal(err)
						}
					}
					if err := pr.Finish(); err != nil {
						t.Fatal(err)
					}
					if err := sameBatch(got(), nlReference(t, kind, pairs, probe)); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// checkTableAgainstBuckets compares the sealed flat index with the
// bucket-per-key map it replaced: same rows per key in the same (insertion)
// order, same counts, same reported footprint.
func checkTableAgainstBuckets(t *testing.T, tbl *HashTable, probe []*storage.Batch) {
	t.Helper()
	buildKeys := tbl.Rows().Vecs[0].I64
	index := naiveHashIndex(buildKeys)
	check := func(k int64) {
		got, want := tbl.Matches(k), index[k]
		if len(got) != len(want) {
			t.Fatalf("Matches(%d) = %v, want %v", k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Matches(%d) = %v, want %v (insertion order)", k, got, want)
			}
		}
	}
	for _, k := range buildKeys {
		check(k)
	}
	for _, p := range probe {
		for _, k := range p.Vecs[1].I64 {
			check(k)
		}
		for i, n := range tbl.MatchCounts(p.Vecs[1].I64) {
			if k := p.Vecs[1].I64[i]; n != int64(len(index[k])) {
				t.Fatalf("MatchCounts: key %d counts %d, want %d", k, n, len(index[k]))
			}
		}
	}
	if got, want := tbl.FootprintBytes(), naiveFootprint(tbl.Rows(), index); got != want {
		t.Errorf("FootprintBytes = %d, want %d (rows + 16 per key + 8 per row)", got, want)
	}
}
