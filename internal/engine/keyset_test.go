package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/relop"
	"repro/internal/storage"
)

// A Semi or Anti build seals a key-set table: its distinct keys and their
// row counts, no build rows. The tests below hold the engine to the two
// rules that keep the forms apart: a key-set table and a row-carrying table
// of one build subtree live under different share keys, and a probe that
// reads build rows refuses a key-set table instead of reading nothing.

// kindSpec is semiSpec with its join, split forms included, of the given
// kind, so the build seals the table form that kind reads.
func kindSpec(bt, pt *storage.Table, sig string, kind relop.JoinKind) QuerySpec {
	spec := semiSpec(bt, pt, sig, nil)
	withBuild(&spec, kind, kind)
	return spec
}

// withBuild redeclares the join of a semiSpec-shaped spec: build seals the
// table form the build kind reads and the join and probe run as probe kind.
func withBuild(spec *QuerySpec, build, probe relop.JoinKind) {
	buildSchema := storage.MustSchema(storage.Column{Name: "bv", Type: storage.Int64})
	probeSchema := storage.MustSchema(storage.Column{Name: "pv", Type: storage.Int64})
	join := &spec.Nodes[len(spec.Nodes)-1]
	join.Fingerprint = probe.String() + "(bv=pv)"
	join.Join = func(emit relop.Emit) (JoinOperator, error) {
		return relop.NewHashJoin(probe, buildSchema, "bv", probeSchema, "pv", emit)
	}
	join.Build = func() (*relop.JoinBuild, error) {
		return relop.NewJoinBuildFor(build, buildSchema, "bv", 0)
	}
	join.Probe = func(emit relop.Emit) (ProbeOperator, error) {
		return relop.NewHashJoinProbe(probe, buildSchema, "bv", probeSchema, "pv", emit)
	}
}

// Two plans that differ only in join kind over one build subtree publish
// their tables under different build share keys exactly when the tables'
// forms differ: Semi and Anti share the key-set namespace, Inner and
// LeftOuter the row-table one. The compiled keys agree with BuildShareKey.
func TestBuildShareKeyNamesTableForm(t *testing.T) {
	bt, pt := buildTables(t, 8, 8)
	keys := map[relop.JoinKind]string{}
	for _, kind := range []relop.JoinKind{relop.Inner, relop.Semi, relop.Anti, relop.LeftOuter} {
		spec := kindSpec(bt, pt, "kf", kind)
		keys[kind] = BuildShareKey(spec, 0)
		if got := Compile(spec).buildKeyAt(0); got != keys[kind] {
			t.Errorf("%v: compiled build key %q, BuildShareKey %q", kind, got, keys[kind])
		}
	}
	if !strings.HasSuffix(keys[relop.Semi], keySetKeySuffix) || !strings.HasSuffix(keys[relop.Inner], buildKeySuffix) {
		t.Errorf("semi key %q, inner key %q: want the %s and %s namespaces", keys[relop.Semi], keys[relop.Inner], keySetKeySuffix, buildKeySuffix)
	}
	if keys[relop.Semi] == keys[relop.Inner] {
		t.Error("a key-set build and a row build of one subtree share a build key")
	}
	if keys[relop.Semi] != keys[relop.Anti] || keys[relop.Inner] != keys[relop.LeftOuter] {
		t.Errorf("builds of one form got different keys: %q", keys)
	}
}

// A Semi and an Inner query over one build subtree, submitted together,
// never meet: each builds its own table, and each reads its own answer.
func TestKeySetAndRowBuildsDoNotMeet(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, err := New(Options{Workers: 2, StartPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	semi := kindSpec(bt, pt, "km/semi", relop.Semi)
	inner := kindSpec(bt, pt, "km/inner", relop.Inner)
	hs, err := e.Submit(semi, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := e.Submit(inner, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if kind := hi.Decision().Kind; kind != "anchor" {
		t.Fatalf("the inner query's decision = %q, want its own anchor", kind)
	}
	e.Start()
	for name, h := range map[string]*Handle{"semi": hs, "inner": hi} {
		res, err := waitWithin(t, h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRange(t, name, res, 0, 32)
	}
	if n := e.Counters(); n.HashBuilds != 2 || n.BuildJoins != 0 {
		t.Errorf("HashBuilds=%d BuildJoins=%d, want 2 builds and no join", n.HashBuilds, n.BuildJoins)
	}
}

// A plan whose Build seals a key-set table under a probe that reads build
// rows fails its query with the attach error rather than answering from a
// table with no rows.
func TestKeySetTableRefusedByInnerProbe(t *testing.T) {
	bt, pt := buildTables(t, 32, 64)
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := semiSpec(bt, pt, "kr/a", nil)
	withBuild(&spec, relop.Semi, relop.Inner)
	h, err := e.Submit(spec, buildAnchor{idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitWithin(t, h); err == nil || !strings.Contains(err.Error(), "key-set") {
		t.Fatalf("an inner probe of a key-set table: err = %v, want the attach refusal", err)
	}
}

// gatedSource yields nothing until its gate closes, then the values
// 0..rows-1 in one page.
type gatedSource struct {
	schema storage.Schema
	gate   <-chan struct{}
	rows   int
}

func (s *gatedSource) Schema() storage.Schema { return s.schema }

func (s *gatedSource) Next() (*storage.Batch, bool, error) {
	select {
	case <-s.gate:
	default:
		return nil, false, nil
	}
	page := storage.NewBatch(s.schema, s.rows)
	for i := 0; i < s.rows; i++ {
		page.Vecs[0].AppendInt(int64(i))
	}
	return page, true, nil
}

// gatedProbe replaces a semiSpec-shaped spec's probe scan with a gated
// source of its own identity, so its probe cannot finish before the gate
// closes and no two queries share beyond the build.
func gatedProbe(spec *QuerySpec, gate <-chan struct{}, rows int) {
	schema := storage.MustSchema(storage.Column{Name: "pv", Type: storage.Int64})
	spec.Nodes[1] = NodeSpec{Name: spec.Signature + "/gated-probe", Fingerprint: spec.Signature + "/gated", Source: func() (PageSource, error) {
		return &gatedSource{schema: schema, gate: gate, rows: rows}, nil
	}}
}

// A build shared over the bus keeps its reader claims balanced. Shard 0
// owns the build with two probers, so its share marks one claim (the group
// holds the base ownership); shard 1 attaches two probers through a foreign
// share, which marks one claim per prober. With every prober parked on its
// gated probe side, the sealed table must carry exactly 1 + 2 claims — the
// count is read by giving them up one at a time — and once every member is
// done, none. It holds for the row table and for the key-set table, whose
// claims ride an empty Rows batch.
func TestForeignBuildClaimBalance(t *testing.T) {
	for _, kind := range []relop.JoinKind{relop.Inner, relop.Semi} {
		t.Run(kind.String(), func(t *testing.T) {
			bt, pt := buildTables(t, 32, 64)
			gate := make(chan struct{})
			spec := func(sig string) QuerySpec {
				s := kindSpec(bt, pt, sig, kind)
				gatedProbe(&s, gate, 64)
				return s
			}
			c, err := NewCluster(2, Options{Workers: 1, StartPaused: true})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			subs := []struct {
				shard int
				sig   string
				kind  string
			}{
				{0, "cb/a", "anchor"}, {0, "cb/b", "build-share"},
				{1, "cb/c", "bus-share"}, {1, "cb/d", "build-share"},
			}
			var hs []*Handle
			for _, s := range subs {
				h, err := c.Shard(s.shard).Submit(spec(s.sig), buildAnchor{idx: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := h.Decision().Kind; got != s.kind {
					t.Fatalf("%s on shard %d: decision %q, want %q", s.sig, s.shard, got, s.kind)
				}
				hs = append(hs, h)
			}
			key := BuildShareKey(spec("cb/a"), 0)
			share := func(e *Engine) *buildShare {
				e.mu.Lock()
				defer e.mu.Unlock()
				return e.joinable[key].build
			}
			owner, remote := share(c.Shard(0)), share(c.Shard(1))
			if owner.origin != builtHere || remote.origin != foreign {
				t.Fatalf("share origins %d, %d: want built here on shard 0, foreign on shard 1", owner.origin, remote.origin)
			}
			c.Start()
			var tbl *relop.HashTable
			for deadline := time.Now().Add(10 * time.Second); ; {
				to, ok := owner.sealedTable()
				tf, okf := remote.sealedTable()
				if ok && okf {
					if to != tf {
						t.Fatal("the foreign share sealed a different table than the owner's")
					}
					tbl = to
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the shared build never sealed on both shards")
				}
				time.Sleep(time.Millisecond)
			}
			if got := tbl.KeySet(); got != (kind == relop.Semi) {
				t.Fatalf("%v build sealed a table with KeySet() = %v", kind, got)
			}
			rows := tbl.Rows()
			const claims = 3
			for i := 1; i <= claims; i++ {
				if !rows.Shared() {
					t.Fatalf("the table carries %d reader claims, want %d", i-1, claims)
				}
				rows.Release()
			}
			if rows.Shared() {
				t.Fatalf("the table carries more than %d reader claims", claims)
			}
			rows.MarkShared(claims)
			close(gate)
			for i, h := range hs {
				res, err := waitWithin(t, h)
				if err != nil {
					t.Fatalf("%s: %v", subs[i].sig, err)
				}
				wantRange(t, subs[i].sig, res, 0, 32)
			}
			if rows.Shared() {
				t.Error("reader claims remain on the table after every member completed")
			}
		})
	}
}
