// Package workload implements the closed-system experiment of Section 8.2:
// a fixed population of clients, each resubmitting a query the moment the
// previous one completes, over a mix of query classes (the paper varies the
// fraction of Q4 vs Q1), executed under one of the three sharing policies.
// Its analytical evaluator is deterministic and regenerates Figure 6's
// curves from the model. The package also holds the open-loop arrival
// processes and the pipelined cordobad wire client that drive the live
// server.
package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Class is one query class in a mix.
type Class struct {
	// Name labels the class ("Q1").
	Name string
	// Model carries the class's work-model coefficients.
	Model core.Query
	// Clients is the number of closed-loop clients running this class.
	Clients int
}

// Mix is a closed-system workload.
type Mix struct {
	// Classes are the query classes; total clients is the sum.
	Classes []Class
}

// PolicyKind selects the sharing policy for analytic prediction.
type PolicyKind int

const (
	// NeverShare executes every query independently.
	NeverShare PolicyKind = iota
	// AlwaysShare merges all clients of a class into one group.
	AlwaysShare
	// ModelShare partitions each class into the group configuration the
	// model predicts fastest (Section 8.1's multiple-groups optimization).
	ModelShare
)

// String returns the policy label used in Figure 6.
func (p PolicyKind) String() string {
	switch p {
	case NeverShare:
		return "never"
	case AlwaysShare:
		return "always"
	case ModelShare:
		return "model"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// unit is one allocation unit competing for processors: x(n') =
// min(peak, peak/sat · n') for its processor share n'.
type unit struct {
	peak float64 // aggregate rate with unlimited processors
	sat  float64 // processors needed to reach peak
}

// unsharedUnit models m independent copies of q.
func unsharedUnit(q core.Query, m int) unit {
	pm := q.PMax()
	up := q.UPrime()
	if pm == 0 || up == 0 {
		return unit{}
	}
	peak := float64(m) / pm
	return unit{peak: peak, sat: peak * up}
}

// sharedUnit models one group of m sharers of q.
func sharedUnit(q core.Query, m int) unit {
	pm := q.SharedPMax(m)
	up := q.SharedUPrime(m)
	if pm == 0 || up == 0 {
		return unit{}
	}
	return unit{peak: float64(m) / pm, sat: up / pm}
}

// systemX returns total throughput of the units on n processors under
// uniform time sharing: if aggregate saturation demand exceeds n, every
// unit slows by the same factor λ = n/Σsat (round-robin fairness).
func systemX(units []unit, n float64) float64 {
	var totSat, totPeak float64
	for _, u := range units {
		totSat += u.sat
		totPeak += u.peak
	}
	if totSat <= n || totSat == 0 {
		return totPeak
	}
	return totPeak * n / totSat
}

// classCandidates enumerates the sharing configurations one class can adopt:
// fully unshared, one group, and every partition into g evenly-sized groups
// (Section 8.1's multiple-groups strategy).
func classCandidates(c Class) [][]unit {
	m := c.Clients
	if m == 0 {
		return [][]unit{nil}
	}
	out := [][]unit{{unsharedUnit(c.Model, m)}}
	for groups := 1; groups <= m; groups++ {
		var cfg []unit
		base, extra := m/groups, m%groups
		for gi := 0; gi < groups; gi++ {
			size := base
			if gi < extra {
				size++
			}
			if size == 0 {
				continue
			}
			if size == 1 {
				cfg = append(cfg, unsharedUnit(c.Model, 1))
			} else {
				cfg = append(cfg, sharedUnit(c.Model, size))
			}
		}
		out = append(out, cfg)
	}
	return out
}

// staticUnits returns the units of a static policy for one class.
func staticUnits(c Class, kind PolicyKind) []unit {
	if c.Clients == 0 {
		return nil
	}
	if kind == AlwaysShare {
		return []unit{sharedUnit(c.Model, c.Clients)}
	}
	return []unit{unsharedUnit(c.Model, c.Clients)}
}

// PredictThroughput evaluates the mix's aggregate throughput (queries per
// unit of model time) on n processors under a policy, using the analytical
// model end to end. This is the evaluator behind the Figure 6 series.
//
// ModelShare performs a joint search: per-class candidate configurations
// are optimized by coordinate ascent over the whole mix (classes interact
// through the shared processor pool), seeded with both static policies, so
// the model-guided prediction always dominates always-share and
// never-share.
func PredictThroughput(mix Mix, n float64, kind PolicyKind) float64 {
	switch kind {
	case NeverShare, AlwaysShare:
		var units []unit
		for _, c := range mix.Classes {
			units = append(units, staticUnits(c, kind)...)
		}
		return systemX(units, n)
	case ModelShare:
		return modelSearch(mix, n)
	default:
		panic(fmt.Sprintf("workload: unknown policy %d", int(kind)))
	}
}

// modelSearch runs coordinate ascent over per-class configurations from two
// seeds (all-unshared and all-shared) and returns the best total throughput
// found.
func modelSearch(mix Mix, n float64) float64 {
	cands := make([][][]unit, len(mix.Classes))
	for i, c := range mix.Classes {
		cands[i] = classCandidates(c)
	}
	evaluate := func(choice []int) float64 {
		var units []unit
		for i, ci := range choice {
			units = append(units, cands[i][ci]...)
		}
		return systemX(units, n)
	}
	best := 0.0
	for _, seedKind := range []PolicyKind{NeverShare, AlwaysShare} {
		choice := make([]int, len(mix.Classes))
		for i, c := range mix.Classes {
			choice[i] = seedIndex(cands[i], c, seedKind)
		}
		cur := evaluate(choice)
		for pass := 0; pass < 8; pass++ {
			improved := false
			for i := range choice {
				bestCi, bestX := choice[i], cur
				for ci := range cands[i] {
					if ci == choice[i] {
						continue
					}
					old := choice[i]
					choice[i] = ci
					if x := evaluate(choice); x > bestX {
						bestCi, bestX = ci, x
					}
					choice[i] = old
				}
				if bestCi != choice[i] {
					choice[i] = bestCi
					cur = bestX
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if cur > best {
			best = cur
		}
	}
	return best
}

// seedIndex locates the candidate matching a static policy: index 0 is the
// fully unshared configuration, index 1 is the single shared group.
func seedIndex(cands [][]unit, c Class, kind PolicyKind) int {
	if kind == AlwaysShare && c.Clients > 1 && len(cands) > 1 {
		return 1
	}
	return 0
}

// Figure6Point is one x-position of Figure 6: a Q4 fraction with the
// throughput of each policy.
type Figure6Point struct {
	// FractionQ4 is the share of clients running the join-heavy class.
	FractionQ4 float64
	// Never, Always, Model are predicted throughputs.
	Never, Always, Model float64
}

// Figure6Series sweeps the Q4 fraction from 0 to 1 for a fixed client count
// and processor count, reproducing one panel of Figure 6.
func Figure6Series(q1, q4 core.Query, clients int, n float64, steps int) []Figure6Point {
	if steps < 1 {
		steps = 4
	}
	out := make([]Figure6Point, 0, steps+1)
	for i := 0; i <= steps; i++ {
		f := float64(i) / float64(steps)
		m4 := int(math.Round(f * float64(clients)))
		mix := Mix{Classes: []Class{
			{Name: "Q1", Model: q1, Clients: clients - m4},
			{Name: "Q4", Model: q4, Clients: m4},
		}}
		out = append(out, Figure6Point{
			FractionQ4: f,
			Never:      PredictThroughput(mix, n, NeverShare),
			Always:     PredictThroughput(mix, n, AlwaysShare),
			Model:      PredictThroughput(mix, n, ModelShare),
		})
	}
	return out
}
