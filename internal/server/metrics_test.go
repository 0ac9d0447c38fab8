package server_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden /metrics surface files in testdata/")

// runFixedSequence starts a server of the given shard count (with cache as
// its keep-alive cache, nil for none) and runs every family's variants 0
// and 1 one at a time (each waits for the previous reply), so every
// admission and sharing decision is taken on an idle engine and the set of
// decision kinds the audit reports is fixed. It returns the server, still
// admitting, and the connection the sequence ran on.
func runFixedSequence(t *testing.T, shards int, cache *artifact.Cache) (*server.Server, *wire) {
	t.Helper()
	const workers = 2
	s, addr := startServer(t, server.Config{
		DB:     db(t),
		Shards: shards,
		Engine: engine.Options{Workers: workers, FanOut: engine.FanOutShare, Cache: cache},
		Policy: subplanPolicy(t, workers),
	})
	w := dialWire(t, addr)
	for _, f := range tpch.Families() {
		for v := 0; v < 2; v++ {
			id := fmt.Sprintf("%s-%d", f.Name, v)
			w.send(server.Request{ID: id, Family: f.Name, Variant: v})
			if resp := w.recv(1)[id]; resp.Status != server.StatusOK {
				t.Fatalf("%s: %+v", id, resp)
			}
		}
	}
	return s, w
}

// scrape renders the server's registry in Prometheus text format.
func scrape(t *testing.T, s *server.Server) string {
	t.Helper()
	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// metricsSurface reduces an exposition to its shape: every # HELP and
// # TYPE line, and every series' name with its label set (values dropped),
// sorted and deduplicated.
func metricsSurface(exposition string) []string {
	seen := map[string]bool{}
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// The /metrics surface — series names, HELP and TYPE text, and label sets —
// is an interface dashboards and the smoke test scrape by name. It must not
// move when the code behind it does: this compares it, on one shard and on
// two, against the committed lists in testdata/ (regenerate with -update
// only for a deliberate surface change).
func TestMetricsSurfaceGolden(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, _ := runFixedSequence(t, shards, nil)
			s.Drain()
			got := metricsSurface(scrape(t, s))
			path := filepath.Join("testdata", fmt.Sprintf("metrics_%dshard.golden", shards))
			if *updateGolden {
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			gotSet := map[string]bool{}
			for _, l := range got {
				gotSet[l] = true
			}
			wantSet := map[string]bool{}
			for _, l := range want {
				wantSet[l] = true
				if !gotSet[l] {
					t.Errorf("missing from /metrics: %s", l)
				}
			}
			for _, l := range got {
				if !wantSet[l] {
					t.Errorf("not in %s: %s", path, l)
				}
			}
		})
	}
}

// series sums an exposition's sample values by series name, over every
// label set; bySeries keys them by the full name{labels} instead.
func series(t *testing.T, exposition string) (byName, bySeries map[string]float64) {
	t.Helper()
	byName, bySeries = map[string]float64{}, map[string]float64{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		byName[name] += v
		bySeries[line[:i]] = v
	}
	return byName, bySeries
}

// fieldSeries pairs a Stats field's value with the registry series that
// must report it.
type fieldSeries struct {
	field  string
	got    int64
	series string
}

// The stats op and /metrics read one set of counters: after a fixed run and
// a drain, every numeric Stats field equals its registry series summed over
// the shard labels, and a sharded server's per-shard rows equal their
// shard's series and sum to the top-level counters. The shards share one
// keep-alive cache, whose cordoba_cache_* series are registered once, with
// no shard label, so they sum like every other counter.
func TestStatsAndMetricsOneSource(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cache := artifact.New(artifact.Config{BudgetBytes: 64 << 20, TTL: time.Minute})
			s, w := runFixedSequence(t, shards, cache)
			// Then a pipelined burst, so groups form, admission may shed, and
			// the sharing counters move too (by how much depends on timing).
			const burst = 12
			for i := 0; i < burst; i++ {
				w.send(server.Request{ID: fmt.Sprint(i), Family: []string{"Q1", "Q4", "Q13"}[i%3], Variant: i})
			}
			for id, resp := range w.recv(burst) {
				if resp.Status != server.StatusOK && resp.Status != server.StatusShed {
					t.Fatalf("%s: %+v", id, resp)
				}
			}
			s.Drain()
			// An idle pool's workers may still park after the drain, so
			// each Stats field is read before and after the scrape and its
			// series must lie between the two reads; every other counter
			// is at rest and both reads agree.
			st := s.Stats()
			byName, bySeries := series(t, scrape(t, s))
			after := s.Stats()
			if st.Completed == 0 || st.CompileMisses == 0 || st.CacheMisses == 0 || st.CacheBytes == 0 {
				t.Fatalf("the fixed run left counters at zero: %+v", st)
			}
			fields := func(st server.Stats) []fieldSeries {
				var pivotJoins int64
				for _, n := range st.PivotJoins {
					pivotJoins += n
				}
				return []fieldSeries{
					{"Completed", st.Completed, "cordoba_queries_total"},
					{"Shed", st.Shed, "cordoba_shed_total"},
					{"Errors", st.Errors, "cordoba_request_errors_total"},
					{"Active", int64(st.Active), "cordoba_engine_active"},
					{"Queued", int64(st.Queued), "cordoba_queued"},
					{"HashBuilds", st.HashBuilds, "cordoba_engine_hash_builds_total"},
					{"BuildJoins", st.BuildJoins, "cordoba_engine_build_joins_total"},
					{"InflightAttaches", st.InflightAttaches, "cordoba_engine_inflight_attaches_total"},
					{"PivotJoins", pivotJoins, "cordoba_engine_pivot_joins_total"},
					{"CompileHits", st.CompileHits, "cordoba_compile_hits_total"},
					{"CompileMisses", st.CompileMisses, "cordoba_compile_misses_total"},
					{"Steals", st.Steals, "cordoba_sched_steals_total"},
					{"Parks", st.Parks, "cordoba_sched_parks_total"},
					{"PoolGets", st.PoolGets, "cordoba_pagepool_gets_total"},
					{"PoolHits", st.PoolHits, "cordoba_pagepool_hits_total"},
					{"PoolPuts", st.PoolPuts, "cordoba_pagepool_puts_total"},
					{"BusJoins", st.BusJoins, "cordoba_engine_bus_joins_total"},
					{"Scatters", st.Scatters, "cordoba_cluster_scatters_total"},
					{"Routed", st.Routed, "cordoba_cluster_routed_total"},
					{"CacheHits", st.CacheHits, "cordoba_cache_hits_total"},
					{"CacheMisses", st.CacheMisses, "cordoba_cache_misses_total"},
					{"CacheEvictions", st.CacheEvictions, "cordoba_cache_evictions_total"},
					{"CacheBytes", st.CacheBytes, "cordoba_cache_bytes"},
				}
			}
			lo, hi := fields(st), fields(after)
			for i, f := range lo {
				if v := int64(byName[f.series]); v < f.got || v > hi[i].got {
					t.Errorf("Stats.%s read %d then %d, %s = %d", f.field, f.got, hi[i].got, f.series, v)
				}
			}
			for d, n := range st.Admissions {
				if want := int64(bySeries[fmt.Sprintf(`cordoba_admissions_total{decision=%q}`, d)]); n != want {
					t.Errorf("Stats.Admissions[%s] = %d, series %d", d, n, want)
				}
			}

			shardLabel := func(i int) string {
				if shards == 1 {
					return ""
				}
				return fmt.Sprintf(`{shard="%d"}`, i)
			}
			if shards == 1 {
				if len(st.Shards) != 0 {
					t.Fatalf("one shard reports %d shard rows", len(st.Shards))
				}
				return
			}
			if len(st.Shards) != shards {
				t.Fatalf("%d shard rows, want %d", len(st.Shards), shards)
			}
			var sum server.ShardStats
			for i, row := range st.Shards {
				for _, f := range []fieldSeries{
					{"Active", int64(row.Active), "cordoba_engine_active"},
					{"Completed", row.Completed, "cordoba_engine_completed_total"},
					{"HashBuilds", row.HashBuilds, "cordoba_engine_hash_builds_total"},
					{"BuildJoins", row.BuildJoins, "cordoba_engine_build_joins_total"},
					{"BusJoins", row.BusJoins, "cordoba_engine_bus_joins_total"},
					{"CompileHits", row.CompileHits, "cordoba_compile_hits_total"},
					{"CompileMisses", row.CompileMisses, "cordoba_compile_misses_total"},
				} {
					if want := int64(bySeries[f.series+shardLabel(i)]); f.got != want {
						t.Errorf("Shards[%d].%s = %d, %s%s = %d", i, f.field, f.got, f.series, shardLabel(i), want)
					}
				}
				sum.HashBuilds += row.HashBuilds
				sum.BuildJoins += row.BuildJoins
				sum.BusJoins += row.BusJoins
				sum.CompileHits += row.CompileHits
				sum.CompileMisses += row.CompileMisses
			}
			if sum.HashBuilds != st.HashBuilds || sum.BuildJoins != st.BuildJoins || sum.BusJoins != st.BusJoins ||
				sum.CompileHits != st.CompileHits || sum.CompileMisses != st.CompileMisses {
				t.Errorf("shard rows sum to builds %d, build joins %d, bus joins %d, compile %d/%d; Stats says %d, %d, %d, %d/%d",
					sum.HashBuilds, sum.BuildJoins, sum.BusJoins, sum.CompileHits, sum.CompileMisses,
					st.HashBuilds, st.BuildJoins, st.BusJoins, st.CompileHits, st.CompileMisses)
			}
		})
	}
}
