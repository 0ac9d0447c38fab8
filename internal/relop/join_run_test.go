package relop

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// JoinBuild.Push looks a key up once per run of equal consecutive keys.
// These builds put runs where a lookup that remembers the previous key
// would go wrong: a first key equal to a zero-valued "previous key", runs
// that straddle a Push, keys that alternate, and one key for every row.

// keyedBuild returns build pages of joinDiffBuild holding exactly the given
// keys, one page per slice, with random payload columns.
func keyedBuild(rng *rand.Rand, pages ...[]int64) []*storage.Batch {
	var out []*storage.Batch
	for _, keys := range pages {
		b := storage.NewBatch(joinDiffBuild, len(keys))
		for _, k := range keys {
			if err := b.AppendRow(k, rng.Float64(), fmt.Sprintf("b%d", rng.Intn(50)), int64(rng.Intn(9000))); err != nil {
				panic(err)
			}
		}
		out = append(out, b)
	}
	return out
}

// keyedProbe returns two probe pages that look every build key up twice,
// and some keys no build holds, in shuffled order.
func keyedProbe(rng *rand.Rand, build []*storage.Batch) []*storage.Batch {
	keys := []int64{-2, 3, 100}
	for _, b := range build {
		keys = append(keys, b.Vecs[0].I64...)
	}
	keys = append(keys, keys...)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var out []*storage.Batch
	for rid, half := 0, len(keys)/2; rid < len(keys); {
		end := min(rid+half, len(keys))
		b := storage.NewBatch(joinDiffProbe, end-rid)
		for ; rid < end; rid++ {
			if err := b.AppendRow(int64(rid), keys[rid], fmt.Sprintf("p%d", rng.Intn(50))); err != nil {
				panic(err)
			}
		}
		out = append(out, b)
	}
	return out
}

func TestJoinBuildRunLookupMatchesNestedLoop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pages [][]int64
	}{
		{"first key zero", [][]int64{{0, 0, 0, 1, 1, 0, 2}}},
		{"first key zero, alone", [][]int64{{0}, {0, 0}, {1}}},
		{"negative keys", [][]int64{{-5, -5, -3, -3, -3, -1, 0, -1, -1}}},
		{"run straddles a push", [][]int64{{1, 2, 7, 7}, {7, 7, 8}, {8}, {8, 9}}},
		{"alternating keys", [][]int64{{1, 2, 1, 2, 1, 2}, {2, 1, 2}}},
		{"one key for every row", [][]int64{{9, 9, 9, 9}, {9, 9}, {}, {9}}},
		{"extreme keys", [][]int64{{math.MinInt64, math.MinInt64, -1, math.MaxInt64}, {math.MaxInt64, 0}}},
	} {
		rng := rand.New(rand.NewSource(1))
		build := keyedBuild(rng, tc.pages...)
		probe := keyedProbe(rng, build)
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
		t.Run(tc.name+"/table", func(t *testing.T) {
			checkTableAgainstBuckets(t, jb.Table(), probe)
		})
		pairs := nlPairs(t, build, probe)
		for _, kind := range []JoinKind{Inner, Semi, Anti, LeftOuter} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, kind), func(t *testing.T) {
				got, _ := pooledJoin(t, kind, 0, build, probe)
				if err := sameBatch(got, nlReference(t, kind, pairs, probe)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
