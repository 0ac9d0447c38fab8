package workload

import (
	"math"
	"math/rand"
	"time"
)

// This file models open-loop (open-system) traffic: arrivals fire on their
// own schedule whether or not earlier queries have finished, unlike
// closed-loop clients that wait for each response before resubmitting. Open-loop load is what exposes tail latency and the need for
// admission control — a closed loop self-throttles at saturation, an open
// loop keeps pushing.

// ArrivalProcess generates inter-arrival gaps. Next takes the elapsed time
// since the run started (so time-varying processes know where they are in
// their cycle) and returns the gap before the next arrival.
type ArrivalProcess interface {
	Next(elapsed time.Duration) time.Duration
}

// Poisson is a homogeneous Poisson arrival process: exponentially
// distributed gaps at a constant mean rate.
type Poisson struct {
	rate float64 // arrivals per second
	rng  *rand.Rand
}

// NewPoisson returns a Poisson process offering `rate` arrivals per second,
// deterministic under `seed`.
func NewPoisson(rate float64, seed uint64) *Poisson {
	return &Poisson{rate: rate, rng: rand.New(rand.NewSource(int64(seed)))}
}

func (p *Poisson) Next(time.Duration) time.Duration {
	return expGap(p.rng, p.rate)
}

// Diurnal is a sinusoidally modulated Poisson process — the load curve of a
// day compressed into Period: rate(t) = Base·(1 + Amplitude·sin(2πt/Period)).
// Amplitude in [0,1) keeps the rate positive.
type Diurnal struct {
	base      float64
	amplitude float64
	period    time.Duration
	rng       *rand.Rand
}

// NewDiurnal returns a diurnal process around `base` arrivals per second.
func NewDiurnal(base, amplitude float64, period time.Duration, seed uint64) *Diurnal {
	if amplitude < 0 {
		amplitude = 0
	}
	if amplitude > 0.99 {
		amplitude = 0.99
	}
	return &Diurnal{base: base, amplitude: amplitude, period: period, rng: rand.New(rand.NewSource(int64(seed)))}
}

func (d *Diurnal) Next(elapsed time.Duration) time.Duration {
	phase := 2 * math.Pi * float64(elapsed) / float64(d.period)
	rate := d.base * (1 + d.amplitude*math.Sin(phase))
	return expGap(d.rng, rate)
}

// FlashCrowd is a step process: Base rate, then Peak for the window
// [At, At+Dur), then Base again — the overload spike admission control is
// for.
type FlashCrowd struct {
	base, peak float64
	at, dur    time.Duration
	rng        *rand.Rand
}

// NewFlashCrowd returns a flash-crowd process: `base` arrivals per second
// with a `peak` burst of length dur starting at `at`.
func NewFlashCrowd(base, peak float64, at, dur time.Duration, seed uint64) *FlashCrowd {
	return &FlashCrowd{base: base, peak: peak, at: at, dur: dur, rng: rand.New(rand.NewSource(int64(seed)))}
}

func (f *FlashCrowd) Next(elapsed time.Duration) time.Duration {
	rate := f.base
	if elapsed >= f.at && elapsed < f.at+f.dur {
		rate = f.peak
	}
	return expGap(f.rng, rate)
}

// expGap samples an exponential inter-arrival gap at the given rate,
// clamped so a degenerate rate cannot stall the arrival loop forever.
func expGap(rng *rand.Rand, rate float64) time.Duration {
	if rate <= 0 {
		return time.Second
	}
	gap := rng.ExpFloat64() / rate
	const maxGap = 10.0 // seconds
	if gap > maxGap {
		gap = maxGap
	}
	return time.Duration(gap * float64(time.Second))
}
