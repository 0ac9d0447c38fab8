package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func newCluster(t *testing.T, n int, opts engine.Options) *engine.Cluster {
	t.Helper()
	c, err := engine.NewCluster(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// lineitemRemap partitions the database's lineitem k ways and returns the
// CompileScatter remap substituting shard i's partition.
func lineitemRemap(t *testing.T, db *tpch.DB, k int) func(int, *storage.Table) *storage.Table {
	t.Helper()
	parts, err := storage.RangePartition(db.Lineitem, "l_orderkey", k)
	if err != nil {
		t.Fatal(err)
	}
	return func(shard int, tbl *storage.Table) *storage.Table {
		if tbl == db.Lineitem {
			return parts[shard]
		}
		return tbl
	}
}

// CompileScatter must qualify every shard spec's identity — partial root
// fingerprint, shard-suffixed signature and plan key, remapped scan tables —
// while leaving the template untouched, and must price the routing model's
// gather at the root pivot's s.
func TestCompileScatterIdentity(t *testing.T) {
	db := testDB(t)
	template := tpch.MustEngineSpec(tpch.Q1, db, 0)
	rootFP := template.Nodes[1].Fingerprint
	plan, err := engine.CompileScatter(template, 4, lineitemRemap(t, db, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 4 || plan.Merge == nil {
		t.Fatalf("plan has %d shards, merge %v", len(plan.Shards), plan.Merge != nil)
	}
	if want := tpch.ModelAt(tpch.Q1, 1).PivotS; plan.Gather.PivotS != want {
		t.Errorf("gather s = %g, want the root pivot's %g", plan.Gather.PivotS, want)
	}
	seenSig := map[string]bool{}
	for i, s := range plan.Shards {
		if !strings.HasSuffix(s.Signature, "@s0/4") && i == 0 {
			t.Errorf("shard 0 signature %q lacks the shard qualifier", s.Signature)
		}
		if seenSig[s.Signature] {
			t.Errorf("duplicate shard signature %q", s.Signature)
		}
		seenSig[s.Signature] = true
		if s.PlanKey == template.PlanKey {
			t.Errorf("shard %d plan key %q collides with the template's", i, s.PlanKey)
		}
		root := s.Nodes[len(s.Nodes)-1]
		if !strings.HasSuffix(root.Fingerprint, "|partial") {
			t.Errorf("shard %d root fingerprint %q lacks the partial namespace", i, root.Fingerprint)
		}
		if root.Partial != nil || root.Merge != nil {
			t.Errorf("shard %d root kept its Partial/Merge pair", i)
		}
		if s.Parallel != 0 {
			t.Errorf("shard %d inherited parallel degree %d", i, s.Parallel)
		}
		scanTbl := s.Nodes[0].Scan.Table
		if scanTbl == db.Lineitem {
			t.Errorf("shard %d still scans the base lineitem", i)
		}
		if want := storage.PartitionName("lineitem", i, 4); scanTbl.Name != want {
			t.Errorf("shard %d scans %q, want %q", i, scanTbl.Name, want)
		}
	}
	// The template must be untouched: scatter compilation copies.
	if template.Nodes[1].Fingerprint != rootFP || template.Nodes[1].Partial == nil {
		t.Error("CompileScatter mutated the template")
	}
	if template.Nodes[0].Scan.Table != db.Lineitem {
		t.Error("CompileScatter remapped the template's scan")
	}

	// One shard compiles to a route-whole plan under canonical identity.
	one, err := engine.CompileScatter(template, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Shards) != 0 || one.Template.Signature != template.Signature {
		t.Error("1-shard compile must route whole under the template identity")
	}

	// A root without the Partial/Merge pair cannot scatter.
	if _, err := engine.CompileScatter(tpch.MustEngineSpec(tpch.Q4, db, 0), 2, nil); err == nil {
		t.Error("scatter compiled for a root without Partial/Merge")
	}
	if _, err := engine.CompileScatter(template, 0, nil); err == nil {
		t.Error("scatter compiled for zero shards")
	}
}

// A scattered query must reproduce the single-engine serial result (up to
// summation-order float jitter in the last ulp) on every shard count, and a
// repeated scattered run must be byte-stable.
func TestClusterScatterMatchesSerial(t *testing.T) {
	db := testDB(t)
	for _, q := range []tpch.QueryID{tpch.Q1, tpch.Q6} {
		serial := newEngine(t, engine.Options{Workers: 2})
		hs, err := serial.Submit(tpch.MustEngineSpec(q, db, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hs.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4} {
			c := newCluster(t, k, engine.Options{Workers: 2})
			plan, err := engine.CompileScatter(tpch.MustEngineSpec(q, db, 0), k, lineitemRemap(t, db, k))
			if err != nil {
				t.Fatal(err)
			}
			var first string
			for rep := 0; rep < 2; rep++ {
				h, err := c.Submit(plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.Wait()
				if err != nil {
					t.Fatalf("%s over %d shards: %v", q, k, err)
				}
				assertApproxResult(t, q.String()+" scattered", got, want)
				r := renderRows(got)
				if rep == 0 {
					first = r
				} else if r != first {
					t.Errorf("%s over %d shards: repeated scatter not byte-stable", q, k)
				}
			}
			if c.Counters().Scatters != 2 || c.Counters().Finished != 2 {
				t.Errorf("%s over %d shards: scatters=%d finished=%d, want 2/2", q, k, c.Counters().Scatters, c.Counters().Finished)
			}
			c.Drain()
		}
	}
}

// renderRows renders a batch in emitted order for byte-stability checks.
func renderRows(b *storage.Batch) string {
	var sb strings.Builder
	for _, r := range batchKeyRows(b) {
		sb.WriteString(r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// The cluster must route whole — no scatter — when the gather model says the
// per-shard saving cannot cover the gather cost, and when the plan carries no
// shard forms at all.
func TestClusterRoutesWhole(t *testing.T) {
	db := testDB(t)
	c := newCluster(t, 2, engine.Options{Workers: 2})

	// A 1-shard compile routes whole, round-robin across shards.
	one, err := engine.CompileScatter(tpch.MustEngineSpec(tpch.Q6, db, 0), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		h, err := c.Submit(one, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Counters().Routed != 2 || c.Counters().Scatters != 0 {
		t.Fatalf("routed=%d scatters=%d, want 2/0", c.Counters().Routed, c.Counters().Scatters)
	}
	if c.Shard(0).Counters().Completed != 1 || c.Shard(1).Counters().Completed != 1 {
		t.Errorf("round-robin routing uneven: %d/%d", c.Shard(0).Counters().Completed, c.Shard(1).Counters().Completed)
	}

	// A scatterable plan whose gather cost dwarfs the saving runs whole.
	plan, err := engine.CompileScatter(tpch.MustEngineSpec(tpch.Q6, db, 0), 2, lineitemRemap(t, db, 2))
	if err != nil {
		t.Fatal(err)
	}
	plan.Gather = core.Query{PivotW: 0.1, PivotS: 100}
	h, err := c.Submit(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.Counters().Routed != 3 || c.Counters().Scatters != 0 {
		t.Fatalf("gather-dominated plan scattered: routed=%d scatters=%d", c.Counters().Routed, c.Counters().Scatters)
	}
}

// A cluster that drains completely between bursts must answer every query of
// every later burst: sealed or retired bus states left behind by an earlier
// burst must never wedge a fresh submission. Regression test — the second
// open-loop burst against a 4-shard cordobad hung forever.
func TestClusterRepeatedBursts(t *testing.T) {
	db := testDB(t)
	sdb, err := tpch.NewShardedDB(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := tpch.CompileShardPlans(sdb, 0)
	if err != nil {
		t.Fatal(err)
	}
	pol, inflight, err := policy.ByName("subplan", core.NewEnv(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 4, engine.Options{Workers: 2, FanOut: engine.FanOutShare, InflightSharing: inflight})
	for burst := 0; burst < 4; burst++ {
		// Submit concurrently, several copies per (family, variant) — the
		// server's open-loop arrivals race exactly like this.
		var (
			mu sync.Mutex
			wg sync.WaitGroup
			hs []*engine.Handle
		)
		for rep := 0; rep < 3; rep++ {
			for _, f := range tpch.ShardFamilies() {
				for v := 0; v < f.Variants; v++ {
					plan := plans[fmt.Sprintf("%s/%d", f.Name, v)]
					name := fmt.Sprintf("burst %d %s/%d", burst, f.Name, v)
					wg.Add(1)
					go func() {
						defer wg.Done()
						h, err := c.SubmitFn(plan, policy.ForEngine(pol), nil)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							return
						}
						mu.Lock()
						hs = append(hs, h)
						mu.Unlock()
					}()
				}
			}
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		var waited atomic.Int32
		done := make(chan struct{})
		go func() {
			for _, h := range hs {
				h.Wait() //nolint:errcheck — the error re-check below runs on the fast path
				waited.Add(1)
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("burst %d wedged: %d of %d queries never completed",
				burst, len(hs)-int(waited.Load()), len(hs))
		}
		for i, h := range hs {
			if _, err := h.Wait(); err != nil {
				t.Errorf("burst %d query %d: %v", burst, i, err)
			}
		}
	}
}

// A plan compiled for a different topology must be rejected at submit.
func TestClusterShardCountMismatch(t *testing.T) {
	db := testDB(t)
	c := newCluster(t, 4, engine.Options{Workers: 2})
	plan, err := engine.CompileScatter(tpch.MustEngineSpec(tpch.Q1, db, 0), 2, lineitemRemap(t, db, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(plan, nil); err == nil {
		t.Fatal("2-shard plan accepted by a 4-shard cluster")
	}
}

// Shards are partitions over one pool, not pools of their own: on a cluster
// of two one-worker shards, work submitted only to shard 1 must also run on
// the worker shard 0 leaves idle — the pool records steals — and every
// result must equal what a serial single-worker engine returns.
func TestClusterIdleShardStealsWork(t *testing.T) {
	db := testDB(t)
	serial := newEngine(t, engine.Options{Workers: 1})
	var specs []engine.QuerySpec
	var want []string
	for _, f := range tpch.Families() {
		spec := f.Spec(db, 0, 0)
		h, err := serial.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
		want = append(want, renderRows(ref))
	}

	c := newCluster(t, 2, engine.Options{Workers: 1, StartPaused: true})
	sh := c.Shard(1)
	// Whether a given round steals depends on how the two workers
	// interleave; a shared pool steals within a few rounds, separate
	// one-worker pools never do.
	for round := 0; round < 20 && sh.Counters().Steals == 0; round++ {
		var hs []*engine.Handle
		for rep := 0; rep < 2; rep++ {
			for _, spec := range specs {
				h, err := sh.Submit(spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, h)
			}
		}
		c.Start()
		for i, h := range hs {
			got, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if r := renderRows(got); r != want[i%len(specs)] {
				t.Fatalf("round %d: %s on shard 1 differs from the serial run", round, specs[i%len(specs)].Signature)
			}
		}
	}
	if sh.Counters().Steals == 0 {
		t.Fatal("shard 0's worker never took shard 1's work: the shards do not share a pool")
	}
	if c.Shard(0).Counters().Completed != 0 {
		t.Errorf("shard 0 completed %d queries, want 0: work was submitted to shard 1 only", c.Shard(0).Counters().Completed)
	}
}

// Cluster.Counters sums the shards' snapshots, reads the pool's steals and
// the one shared cache once rather than per shard, and adds the routing
// counters; the PivotJoins maps it returns are copies.
func TestClusterCounters(t *testing.T) {
	db := testDB(t)
	sdb, err := tpch.NewShardedDB(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := tpch.CompileShardPlans(sdb, 0)
	if err != nil {
		t.Fatal(err)
	}
	pol, _, err := policy.ByName("subplan", core.NewEnv(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	cache := artifact.New(artifact.Config{BudgetBytes: 64 << 20, TTL: time.Minute})
	c := newCluster(t, 2, engine.Options{Workers: 1, FanOut: engine.FanOutShare, Cache: cache, StartPaused: true})
	// Two copies of every plan submitted while paused, so groups form.
	var hs []*engine.Handle
	for _, f := range tpch.ShardFamilies() {
		for v := 0; v < f.Variants; v++ {
			for rep := 0; rep < 2; rep++ {
				h, err := c.Submit(plans[fmt.Sprintf("%s/%d", f.Name, v)], policy.ForEngine(pol))
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, h)
			}
		}
	}
	c.Start()
	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()

	n := c.Counters()
	if len(n.Shards) != 2 {
		t.Fatalf("%d shard rows, want 2", len(n.Shards))
	}
	var sum engine.Counters
	pivot := map[int]int64{}
	for i, r := range n.Shards {
		sum.Completed += r.Completed
		sum.Active += r.Active
		sum.InflightAttaches += r.InflightAttaches
		sum.ParallelRuns += r.ParallelRuns
		sum.ParallelClones += r.ParallelClones
		sum.HashBuilds += r.HashBuilds
		sum.BuildJoins += r.BuildJoins
		sum.BusJoins += r.BusJoins
		sum.CompileHits += r.CompileHits
		sum.CompileMisses += r.CompileMisses
		for lvl, k := range r.PivotJoins {
			pivot[lvl] += k
		}
		if r.Steals != n.Steals || r.Cache != n.Cache {
			t.Errorf("shard %d reads steals %d and cache %+v, the cluster %d and %+v: not one pool and one cache",
				i, r.Steals, r.Cache, n.Steals, n.Cache)
		}
	}
	sum.PivotJoins, sum.Cache, sum.Steals, sum.Parks = pivot, n.Cache, n.Steals, n.Parks
	if fmt.Sprint(sum) != fmt.Sprint(n.Counters) {
		t.Errorf("shard rows sum to\n%+v\ncluster total is\n%+v", sum, n.Counters)
	}
	if n.Completed == 0 || n.BusJoins == 0 || n.Cache.Bytes == 0 || len(n.PivotJoins) == 0 {
		t.Errorf("the run left counters at zero: %+v", n.Counters)
	}
	if got := n.Scatters + n.Routed; got != int64(len(hs)) || n.Finished != int64(len(hs)) {
		t.Errorf("scatters %d + routed %d, finished %d; want %d each", n.Scatters, n.Routed, n.Finished, len(hs))
	}

	for lvl := range n.PivotJoins {
		n.PivotJoins[lvl] += 100
		n.Shards[0].PivotJoins[lvl] += 100
	}
	if fmt.Sprint(c.Counters().PivotJoins) == fmt.Sprint(n.PivotJoins) ||
		fmt.Sprint(c.Shard(0).Counters().PivotJoins) == fmt.Sprint(n.Shards[0].PivotJoins) {
		t.Error("writing a snapshot's PivotJoins reached the engine's counters")
	}
}
