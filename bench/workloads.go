package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/tpch"
)

// Fixed parameters of every workload. The host has two cores, so the driver
// never opens more connections than that, and the closed loops use as many
// logical clients as the server's default admission window (2 × workers):
// at that count nothing is shed, whereas twice as many turn the loop into a
// resubmit spin.
const (
	scaleFactor  = 0.01
	dataSeed     = 42
	numConns     = 2
	numClients   = 4
	warmupCount  = 100
	openRate     = 300.0                  // arrivals per second on the open loop
	churnEvery   = 500 * time.Millisecond // divides a second, so that every second of a window holds as many storms
	shedBackoff  = 10 * time.Millisecond
	cacheTTL     = 500 * time.Millisecond
	closedSeqLen = 1 << 16 // closed loops wrap around past this many requests
)

// workloadDef is one named traffic mix and server configuration.
// BENCHMARK.json and README.md record why each exists.
type workloadDef struct {
	name       string
	open       bool   // open loop on a seeded arrival schedule; else closed loop
	policy     string // sharing policy label, as cordobad's -policy
	shards     int    // engine shards (1 = a single engine)
	workers    int    // workers per shard
	cacheBytes int64  // artifact cache budget; 0 = no cache
	churn      bool   // bump lineitem's epoch every churnEvery during the window
	tenants    int
}

// workloads is the benchmark's fixed set, in BENCHMARK.json's order.
var workloads = []workloadDef{
	// Every query pays its own scan, build and aggregate; sharing and caching
	// changes predict no change here.
	{name: "alone", policy: "never", shards: 1, workers: 2, tenants: 1},
	// Group formation, pivot fan-out and build-share carry the gain.
	{name: "share", policy: "subplan", shards: 1, workers: 2, tenants: 1},
	// The cache holds the whole working set (about 1.2 MB), so wire, admission,
	// the warm compile check and cache lookups dominate.
	{name: "cached", policy: "subplan", shards: 1, workers: 2, tenants: 1, cacheBytes: 64 << 20},
	// Every plan scatters and gathers and join builds cross the bus.
	{name: "scatter", policy: "subplan", shards: 2, workers: 1, tenants: 1},
	// Bursts, misses, evictions and invalidation: the cache is smaller than
	// the working set and the epoch bumps beside the reads.
	{name: "open-churn", policy: "subplan", shards: 1, workers: 2, tenants: 4, cacheBytes: 1 << 20, open: true, churn: true},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// request is one generated query submission. due is the offset from the
// start of the measured window at which an open loop sends it; closed loops
// ignore it.
type request struct {
	family  string
	variant int
	tenant  string
	due     time.Duration
}

// pair is one (family, variant) of the mix.
type pair struct {
	family  string
	variant int
}

// mixPairs lists the 12 (family, variant) pairs every workload draws from.
func mixPairs() []pair {
	var out []pair
	for _, f := range tpch.Families() {
		for v := 0; v < f.Variants; v++ {
			out = append(out, pair{f.Name, v})
		}
	}
	return out
}

var tenantNames = []string{"t0", "t1", "t2", "t3"}

// genSequence generates n requests from the seed: the mix is uniform over
// mixPairs, drawn as consecutive random permutations of the 12 pairs so that
// every seed offers the same work in a different order, and tenants are
// uniform over the first `tenants` names.
func genSequence(seed uint64, n, tenants int) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	pairs := mixPairs()
	seq := make([]request, 0, n)
	for len(seq) < n {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, p := range pairs {
			if len(seq) == n {
				break
			}
			seq = append(seq, request{family: p.family, variant: p.variant, tenant: tenantNames[rng.IntN(tenants)]})
		}
	}
	return seq
}

// scheduleOpen assigns due times to seq: a Poisson process conditioned on
// its count, that is, len(seq) sorted uniform draws over the window. Fixing
// the count keeps the offered load identical across seeds while the bursts
// differ.
func scheduleOpen(seq []request, seed uint64, window time.Duration) {
	rng := rand.New(rand.NewPCG(seed, 0xa221))
	dues := make([]time.Duration, len(seq))
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	for i := range seq {
		seq[i].due = dues[i]
	}
}

// sequenceFor generates the workload's whole request sequence for a run: the
// warm-up prefix followed by the measured requests.
func sequenceFor(w workloadDef, seed uint64, window time.Duration) []request {
	if !w.open {
		return genSequence(seed, closedSeqLen, w.tenants)
	}
	n := warmupCount + int(openRate*window.Seconds())
	seq := genSequence(seed, n, w.tenants)
	scheduleOpen(seq[warmupCount:], seed, window)
	return seq
}
