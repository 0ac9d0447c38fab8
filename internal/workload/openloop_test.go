package workload

import (
	"math"
	"testing"
	"time"
)

// The histogram must bound quantile error by its bucket ratio (~9%) on a
// known uniform distribution, clamp to the observed max, and zero out when
// empty.
func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.99) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram reported nonzero stats")
	}
	for ms := 1; ms <= 1000; ms++ {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count() = %d", h.Count())
	}
	if h.Max() != time.Second {
		t.Fatalf("Max() = %v", h.Max())
	}
	checks := []struct {
		p    float64
		want time.Duration
	}{{0.50, 500 * time.Millisecond}, {0.95, 950 * time.Millisecond}, {0.99, 990 * time.Millisecond}}
	for _, c := range checks {
		got := h.Quantile(c.p)
		ratio := float64(got) / float64(c.want)
		if ratio < 0.90 || ratio > 1.10 {
			t.Fatalf("Quantile(%.2f) = %v, want %v ±10%%", c.p, got, c.want)
		}
	}
	if h.Quantile(1) > h.Max() {
		t.Fatalf("Quantile(1) = %v exceeds Max() = %v", h.Quantile(1), h.Max())
	}
	mean := h.Mean()
	if mean < 450*time.Millisecond || mean > 550*time.Millisecond {
		t.Fatalf("Mean() = %v", mean)
	}
}

// Poisson gaps must average 1/rate, reproduce exactly under the same seed,
// and never exceed the stall clamp.
func TestPoissonArrivals(t *testing.T) {
	const rate = 200.0
	p1 := NewPoisson(rate, 7)
	p2 := NewPoisson(rate, 7)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		g1 := p1.Next(0)
		if g2 := p2.Next(0); g2 != g1 {
			t.Fatalf("same seed diverged at sample %d: %v vs %v", i, g1, g2)
		}
		if g1 < 0 || g1 > 10*time.Second {
			t.Fatalf("gap %v out of range", g1)
		}
		sum += g1
	}
	mean := float64(sum) / float64(n) / float64(time.Second)
	if math.Abs(mean-1/rate) > 0.2/rate {
		t.Fatalf("mean gap %.6fs, want ~%.6fs", mean, 1/rate)
	}
	if NewPoisson(0, 1).Next(0) != time.Second {
		t.Fatal("degenerate rate did not clamp")
	}
}

// The flash-crowd step must offer visibly denser arrivals inside its window
// than outside, and the diurnal cycle must modulate the mean gap across
// phases.
func TestShapedArrivals(t *testing.T) {
	fc := NewFlashCrowd(10, 1000, time.Minute, time.Minute, 3)
	meanGap := func(p ArrivalProcess, elapsed time.Duration, n int) float64 {
		var sum time.Duration
		for i := 0; i < n; i++ {
			sum += p.Next(elapsed)
		}
		return float64(sum) / float64(n)
	}
	base := meanGap(fc, 0, 4000)
	peak := meanGap(fc, 90*time.Second, 4000)
	if base < 50*peak {
		t.Fatalf("flash crowd not dense enough: base gap %.0f, peak gap %.0f", base, peak)
	}
	d := NewDiurnal(100, 0.9, time.Hour, 3)
	high := meanGap(d, 15*time.Minute, 4000) // sin peak: rate 190/s
	low := meanGap(d, 45*time.Minute, 4000)  // sin trough: rate 10/s
	if low < 5*high {
		t.Fatalf("diurnal cycle flat: trough gap %.0f, peak gap %.0f", low, high)
	}
}

// A diurnal amplitude outside [0, 0.99] is clamped: a negative one gives the
// flat Poisson process of the same seed, gap for gap, and one of 1 or more
// behaves as 0.99, so the trough rate stays positive.
func TestNewDiurnalClampsAmplitude(t *testing.T) {
	flat, poisson := NewDiurnal(100, -0.5, time.Hour, 9), NewPoisson(100, 9)
	deep, capped := NewDiurnal(100, 3, time.Hour, 9), NewDiurnal(100, 0.99, time.Hour, 9)
	for i := 0; i < 200; i++ {
		elapsed := time.Duration(i) * time.Minute
		if a, b := flat.Next(elapsed), poisson.Next(elapsed); a != b {
			t.Fatalf("gap %d at %v: negative amplitude %v, Poisson %v", i, elapsed, a, b)
		}
		if a, b := deep.Next(elapsed), capped.Next(elapsed); a != b {
			t.Fatalf("gap %d at %v: amplitude 3 %v, amplitude 0.99 %v", i, elapsed, a, b)
		}
	}
}

// The one-line run report carries every accounting counter and the latency
// quantiles.
func TestOpenLoopResultString(t *testing.T) {
	lat := &Hist{}
	lat.Observe(2 * time.Millisecond)
	r := OpenLoopResult{Offered: 10, OK: 6, Shed: 2, Errors: 1, Lost: 1, QueuedOK: 3, SharedOK: 4, Latency: lat}
	want := "offered=10 ok=6 shed=2 err=1 lost=1 queued=3 shared=4 " + lat.String()
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
