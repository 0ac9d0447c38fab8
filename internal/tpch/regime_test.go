package tpch

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

// TestRegimePins pins every sharing regime the submit path can commit a
// query to. Each case drives a paused engine (or cluster) so its groups form
// deterministically, then asserts three things per regime: every member's
// rows are byte-equal to the same spec run never-share on one worker (within
// a float tolerance for partitioned clones); the engine's counters moved by
// exactly the regime's increments (and Active is back at 0); and the "pivot"
// trace event, with the anchor/attach event after it, names the decision the
// query was committed to.

// anchorAt joins any group and anchors fresh groups at one pivot candidate
// index (1 is a join family's build candidate).
type anchorAt struct{ idx int }

func (anchorAt) ShouldJoin(core.Query, int) bool     { return true }
func (p anchorAt) ChoosePivot([]core.Query, int) int { return p.idx }

// pairsOnly admits groups of at most two members.
type pairsOnly struct{}

func (pairsOnly) ShouldJoin(_ core.Query, m int) bool { return m <= 2 }

// pinDelta is the counter movement a regime is pinned to.
type pinDelta struct {
	Completed, HashBuilds, BuildJoins, BusJoins    int64
	InflightAttaches, ParallelRuns, ParallelClones int64
	Active                                         int
	PivotJoins                                     map[int]int64
}

func (d pinDelta) String() string {
	return fmt.Sprintf("Completed=%d HashBuilds=%d BuildJoins=%d BusJoins=%d InflightAttaches=%d ParallelRuns=%d ParallelClones=%d Active=%d PivotJoins=%v",
		d.Completed, d.HashBuilds, d.BuildJoins, d.BusJoins, d.InflightAttaches, d.ParallelRuns, d.ParallelClones, d.Active, d.PivotJoins)
}

func deltaOf(before, after engine.Counters) pinDelta {
	d := pinDelta{
		Completed:        after.Completed - before.Completed,
		HashBuilds:       after.HashBuilds - before.HashBuilds,
		BuildJoins:       after.BuildJoins - before.BuildJoins,
		BusJoins:         after.BusJoins - before.BusJoins,
		InflightAttaches: after.InflightAttaches - before.InflightAttaches,
		ParallelRuns:     after.ParallelRuns - before.ParallelRuns,
		ParallelClones:   after.ParallelClones - before.ParallelClones,
		Active:           after.Active - before.Active,
		PivotJoins:       map[int]int64{},
	}
	for lvl, n := range after.PivotJoins {
		if n != before.PivotJoins[lvl] {
			d.PivotJoins[lvl] = n - before.PivotJoins[lvl]
		}
	}
	return d
}

// pinQuery is one submission of a regime: the family variant, the handle,
// and the tracer of the engine that ran it.
type pinQuery struct {
	fam     Family
	variant int
	h       *engine.Handle
	tracer  *obs.Tracer
}

// pinRun submits one regime's queries and reports its counter movement.
type pinRun func(t *testing.T, db *DB) ([]pinQuery, pinDelta)

// submitTo submits one family variant to e under pol.
func submitTo(t *testing.T, db *DB, e *engine.Engine, name string, variant int, pol engine.SharePolicy) pinQuery {
	t.Helper()
	fam, ok := FamilyByName(name)
	if !ok {
		t.Fatalf("no family %s", name)
	}
	h, err := e.Submit(fam.Spec(db, 0, variant), pol)
	if err != nil {
		t.Fatal(err)
	}
	return pinQuery{fam: fam, variant: variant, h: h, tracer: e.Tracer()}
}

// pinBurst submits the named variants to a fresh paused engine under pol,
// starts it and waits; prime, when set, runs first on the same engine (and
// is drained) without counting toward the delta.
func pinBurst(opts engine.Options, pol engine.SharePolicy, prime func(*testing.T, *DB, *engine.Engine), subs ...pinSub) pinRun {
	return func(t *testing.T, db *DB) ([]pinQuery, pinDelta) {
		e, err := engine.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		if prime != nil {
			prime(t, db, e)
		}
		before := e.Counters()
		var qs []pinQuery
		for _, s := range subs {
			qs = append(qs, submitTo(t, db, e, s.family, s.variant, pol))
		}
		e.Start()
		waitAll(t, qs)
		return qs, deltaOf(before, e.Counters())
	}
}

// pinSub names one submission.
type pinSub struct {
	family  string
	variant int
}

func waitAll(t *testing.T, qs []pinQuery) {
	t.Helper()
	for _, q := range qs {
		if _, err := q.h.Wait(); err != nil {
			t.Fatalf("%s v%d: %v", q.fam.Name, q.variant, err)
		}
	}
}

// runOnce submits one variant to a running engine and waits for it.
func runOnce(t *testing.T, db *DB, e *engine.Engine, name string, variant int, pol engine.SharePolicy) {
	t.Helper()
	waitAll(t, []pinQuery{submitTo(t, db, e, name, variant, pol)})
}

// seededCache returns a keep-alive cache holding the Q4 family's build
// table, retained from one run on an engine of its own.
func seededCache(t *testing.T, db *DB) *artifact.Cache {
	t.Helper()
	cache := artifact.New(artifact.Config{BudgetBytes: 64 << 20, TTL: time.Minute})
	e, err := engine.New(engine.Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runOnce(t, db, e, "Q4", 0, policy.Always{})
	if cache.Stats().Entries == 0 {
		t.Fatal("the seeding run retained nothing")
	}
	return cache
}

// regimeEvent reads the query's decision kind from its "pivot" trace event
// and the anchor/attach event that follows it, as "role: detail".
func regimeEvent(t *testing.T, q pinQuery) (kind, event string) {
	t.Helper()
	for _, rec := range q.tracer.Recent(256) {
		if rec.ID != q.h.Trace().ID() {
			continue
		}
		for i, ev := range rec.Events {
			if ev.Kind == "pivot" && i+1 < len(rec.Events) {
				next := rec.Events[i+1]
				return strings.Fields(ev.Detail)[0], next.Kind + ": " + next.Detail
			}
		}
	}
	t.Fatalf("%s v%d: no pivot event in its trace", q.fam.Name, q.variant)
	return "", ""
}

func TestRegimePins(t *testing.T) {
	db := smallDB(t)
	paused := engine.Options{Workers: 2, StartPaused: true}
	build := anchorAt{idx: 1}
	always := policy.Always{}
	cases := []struct {
		name   string
		run    pinRun
		kinds  []string
		events []string
		delta  pinDelta
		// approx compares float columns within approxBatch's tolerance:
		// partitioned clones sum in morsel order, not scan order.
		approx bool
	}{
		{
			name:   "build-anchor",
			run:    pinBurst(paused, build, nil, pinSub{"Q4", 1}),
			kinds:  []string{"anchor"},
			events: []string{"anchor: build group"},
			delta:  pinDelta{Completed: 1, HashBuilds: 1, PivotJoins: map[int]int64{}},
		},
		{
			name:   "build-share-before-seal",
			run:    pinBurst(paused, build, nil, pinSub{"Q4", 1}, pinSub{"Q4", 2}),
			kinds:  []string{"anchor", "build-share"},
			events: []string{"anchor: build group", "attach: shared hash build"},
			delta:  pinDelta{Completed: 2, HashBuilds: 1, BuildJoins: 1, PivotJoins: map[int]int64{0: 1}},
		},
		{
			// The retained table starts sealed, so the second member
			// attaches after the seal.
			name: "build-share-after-seal",
			run: func(t *testing.T, db *DB) ([]pinQuery, pinDelta) {
				opts := paused
				opts.Cache = seededCache(t, db)
				return pinBurst(opts, always, nil, pinSub{"Q4", 1}, pinSub{"Q4", 2})(t, db)
			},
			kinds:  []string{"cache-build", "build-share"},
			events: []string{"anchor: cache-served build", "attach: shared hash build"},
			delta:  pinDelta{Completed: 2, BuildJoins: 2, PivotJoins: map[int]int64{0: 2}},
		},
		{
			name: "cache-build-after-drained-burst",
			run: func(t *testing.T, db *DB) ([]pinQuery, pinDelta) {
				opts := paused
				opts.Cache = artifact.New(artifact.Config{BudgetBytes: 64 << 20, TTL: time.Minute})
				burst := func(t *testing.T, db *DB, e *engine.Engine) {
					q := submitTo(t, db, e, "Q4", 0, always)
					e.Start()
					waitAll(t, []pinQuery{q})
				}
				return pinBurst(opts, always, burst, pinSub{"Q4", 1})(t, db)
			},
			kinds:  []string{"cache-build"},
			events: []string{"anchor: cache-served build"},
			delta:  pinDelta{Completed: 1, BuildJoins: 1, PivotJoins: map[int]int64{0: 1}},
		},
		{
			// The third arrival may not grow the build group past two, so it
			// anchors a fresh group at its join; that mixed group's split
			// join is served from the cache.
			name: "mixed-cache-served-split-join",
			run: func(t *testing.T, db *DB) ([]pinQuery, pinDelta) {
				opts := paused
				opts.Cache = seededCache(t, db)
				return pinBurst(opts, pairsOnly{}, nil, pinSub{"Q4", 1}, pinSub{"Q4", 2}, pinSub{"Q4", 0})(t, db)
			},
			kinds:  []string{"cache-build", "build-share", "anchor"},
			events: []string{"anchor: cache-served build", "attach: shared hash build", "anchor: pivot group"},
			delta:  pinDelta{Completed: 3, BuildJoins: 3, PivotJoins: map[int]int64{0: 3}},
		},
		{
			name: "bus-share",
			run: func(t *testing.T, db *DB) ([]pinQuery, pinDelta) {
				c, err := engine.NewCluster(2, engine.Options{Workers: 1, StartPaused: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				before := c.Counters().Counters
				qs := []pinQuery{
					submitTo(t, db, c.Shard(0), "Q4", 1, always),
					submitTo(t, db, c.Shard(1), "Q4", 2, always),
				}
				c.Start()
				waitAll(t, qs)
				return qs, deltaOf(before, c.Counters().Counters)
			},
			kinds:  []string{"anchor", "bus-share"},
			events: []string{"anchor: pivot group", "attach: bus build state"},
			delta:  pinDelta{Completed: 2, HashBuilds: 1, BuildJoins: 1, BusJoins: 1, PivotJoins: map[int]int64{0: 1}},
		},
		{
			name:   "share",
			run:    pinBurst(paused, always, nil, pinSub{"Q1", 0}, pinSub{"Q1", 0}),
			kinds:  []string{"anchor", "share"},
			events: []string{"anchor: pivot group", "attach: pivot group"},
			delta:  pinDelta{Completed: 2, PivotJoins: map[int]int64{0: 1}},
		},
		{
			name: "inflight-attach",
			run: func(t *testing.T, db *DB) ([]pinQuery, pinDelta) {
				opts := paused
				opts.InflightSharing = true
				return pinBurst(opts, always, nil, pinSub{"Q6", 1}, pinSub{"Q6", 2})(t, db)
			},
			kinds:  []string{"anchor", "attach"},
			events: []string{"anchor: pivot group", "attach: inflight scan remaining=1.00"},
			delta:  pinDelta{Completed: 2, InflightAttaches: 1, PivotJoins: map[int]int64{0: 1}},
		},
		{
			name:   "parallel",
			run:    pinBurst(paused, policy.Parallel{Clones: 2}, nil, pinSub{"Q1", 0}),
			kinds:  []string{"parallel"},
			events: []string{"anchor: partitioned clones d=2"},
			delta:  pinDelta{Completed: 1, ParallelRuns: 1, ParallelClones: 2, PivotJoins: map[int]int64{}},
			approx: true,
		},
		{
			name:   "alone",
			run:    pinBurst(paused, nil, nil, pinSub{"Q4", 0}),
			kinds:  []string{"alone"},
			events: []string{"anchor: unshared run"},
			delta:  pinDelta{Completed: 1, PivotJoins: map[int]int64{}},
		},
		{
			name: "cache-result",
			run: func(t *testing.T, db *DB) ([]pinQuery, pinDelta) {
				opts := paused
				opts.Cache = artifact.New(artifact.Config{BudgetBytes: 64 << 20, TTL: time.Minute})
				first := func(t *testing.T, db *DB, e *engine.Engine) {
					q := submitTo(t, db, e, "Q6", 0, always)
					e.Start()
					waitAll(t, []pinQuery{q})
				}
				return pinBurst(opts, always, first, pinSub{"Q6", 0})(t, db)
			},
			kinds:  []string{"cache-result"},
			events: []string{"serve: cached result run"},
			delta:  pinDelta{Completed: 1, PivotJoins: map[int]int64{}},
		},
	}

	ref, err := engine.New(engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refRows := map[string]*storage.Batch{}
	reference := func(q pinQuery) *storage.Batch {
		key := fmt.Sprintf("%s/%d", q.fam.Name, q.variant)
		if _, ok := refRows[key]; !ok {
			h, err := ref.Submit(q.fam.Spec(db, 0, q.variant), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			refRows[key] = b
		}
		return refRows[key]
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qs, delta := tc.run(t, db)
			if len(qs) != len(tc.kinds) {
				t.Fatalf("%d queries, want %d", len(qs), len(tc.kinds))
			}
			for i, q := range qs {
				got, _ := q.h.Wait()
				if tc.approx {
					approxBatch(t, fmt.Sprintf("query %d (%s v%d)", i, q.fam.Name, q.variant), got, reference(q))
				} else if renderBatch(t, got) != renderBatch(t, reference(q)) {
					t.Errorf("query %d (%s v%d): rows differ from the never-share one-worker run", i, q.fam.Name, q.variant)
				}
				kind, event := regimeEvent(t, q)
				if kind != tc.kinds[i] || event != tc.events[i] {
					t.Errorf("query %d: decision %q (%q), want %q (%q)", i, kind, event, tc.kinds[i], tc.events[i])
				}
				if d := q.h.Decision().Kind; d != kind {
					t.Errorf("query %d: decision record %q, trace %q", i, d, kind)
				}
			}
			if delta.String() != tc.delta.String() {
				t.Errorf("counter delta\n got %v\nwant %v", delta, tc.delta)
			}
		})
	}
}
