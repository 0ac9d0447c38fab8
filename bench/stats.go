package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// values, 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tailPercentile returns the want-quantile of sorted values when at least
// tailBeyond samples lie beyond it; on a shorter run it falls back to the
// highest quantile that has that many beyond it, and to the median when even
// that would sit below the median. used is the quantile actually reported.
func tailPercentile(sorted []float64, want float64) (v, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, want
	}
	i := rankIndex(n, want)
	if n-1-i < tailBeyond {
		i = n - 1 - tailBeyond
		if mid := rankIndex(n, 0.5); i < mid {
			i = mid
		}
		used = float64(i+1) / float64(n)
	} else {
		used = want
	}
	return sorted[i], used
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// span is one traced interval. Spans of one request share req; parent is the
// index of the causing span in the same recorder, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	// StartUS and EndUS are microseconds since the recorder's origin.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanRecorder keeps spans in memory until the run ends. It is filled from
// one goroutine at a time (after the measured window, from the samples), so
// recording costs the measured path one timestamp pair per span and no lock.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func (r *spanRecorder) add(name string, req, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{
		Name: name, Req: req, Parent: parent,
		StartUS: float64(start.Sub(r.origin)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(r.origin)) / float64(time.Microsecond),
	})
	return len(r.spans) - 1
}

// selfTimesUS returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimesUS(spans []span) []float64 {
	type iv struct{ lo, hi float64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := math.Max(s.StartUS, p.StartUS), math.Min(s.EndUS, p.EndUS)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, end := 0.0, math.Inf(-1)
		for _, v := range ivs {
			if v.lo > end {
				covered += v.hi - v.lo
				end = v.hi
			} else if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		self[i] = (s.EndUS - s.StartUS) - covered
	}
	return self
}
