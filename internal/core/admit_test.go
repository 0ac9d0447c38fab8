package core

import (
	"math"
	"testing"
)

// admitTestQuery is a share-friendly plan: heavy pivot work, cheap fan-out,
// a light private chain — sharing eliminates most of the work.
func admitTestQuery() Query {
	return Query{Name: "admit-share", Below: []float64{2}, PivotW: 10, PivotS: 0.2, Above: []float64{1}}
}

// admitLonerQuery is a share-hostile plan: the pivot's per-consumer cost
// rivals its work, so merging buys nothing.
func admitLonerQuery() Query {
	return Query{Name: "admit-alone", PivotW: 1, PivotS: 6, Above: []float64{1}}
}

func TestAdmitEmptySystemAdmits(t *testing.T) {
	env := NewEnv(2)
	for _, q := range []Query{admitTestQuery(), admitLonerQuery()} {
		adm := Admit([]Query{q}, 0, 1, -1, AdmitLoad{Active: 0, Queued: 0}, env)
		if adm.Decision != AdmitAlone {
			t.Fatalf("%s on an empty system: got %v, want admit-alone", q.Name, adm.Decision)
		}
		if adm.Rate <= 0 {
			t.Fatalf("%s: admitted with non-positive predicted rate %g", q.Name, adm.Rate)
		}
	}
	// Even a query whose u' exceeds the processor count admits when nothing
	// else is running: an idle system has no one to protect.
	big := Query{Name: "oversized", Below: []float64{5, 5}, PivotW: 5, PivotS: 0.1, Above: []float64{5}}
	if adm := Admit([]Query{big}, 0, 1, -1, AdmitLoad{}, NewEnv(1)); adm.Decision != AdmitAlone {
		t.Fatalf("oversized query on an empty system: got %v, want admit-alone", adm.Decision)
	}
}

func TestAdmitSharedPastSaturation(t *testing.T) {
	env := NewEnv(2)
	q := admitTestQuery()
	// 16 active queries saturate 2 processors many times over; a sharing
	// opportunity must still admit, because the marginal demand of joining
	// is only the private chain plus one more s.
	adm := Admit([]Query{q}, 4, 1, 1, AdmitLoad{Active: 16, Queued: 8}, env)
	if adm.Decision != AdmitShared {
		t.Fatalf("beneficial share under saturation: got %v, want admit-shared", adm.Decision)
	}
	if adm.Exec != Share {
		t.Fatalf("admit-shared execution regime: got %v, want Share", adm.Exec)
	}
	// The same load with no compatible group must not admit outright.
	alone := Admit([]Query{q}, 0, 1, -1, AdmitLoad{Active: 16, Queued: 8}, env)
	if alone.Decision == AdmitShared || alone.Decision == AdmitAlone {
		t.Fatalf("no group, saturated: got %v, want queue or shed", alone.Decision)
	}
}

func TestAdmitQueueShedCrossoverMatchesModel(t *testing.T) {
	env := NewEnv(2)
	q := admitLonerQuery() // no sharing arm: forces the queue/shed pricing
	load := AdmitLoad{Active: 6}
	k := QueueCrossover(q, load, env)
	if k < 0 {
		t.Fatalf("crossover %d: expected a non-degenerate queueing region", k)
	}
	if k > 10_000 {
		t.Fatalf("crossover %d: patience bound should be finite", k)
	}
	for depth := 0; depth <= k; depth++ {
		load.Queued = depth
		if adm := Admit([]Query{q}, 0, 1, -1, load, env); adm.Decision != AdmitQueue {
			t.Fatalf("depth %d ≤ crossover %d: got %v, want queue", depth, k, adm.Decision)
		}
	}
	for _, depth := range []int{k + 1, k + 2, 4 * (k + 1)} {
		load.Queued = depth
		adm := Admit([]Query{q}, 0, 1, -1, load, env)
		if adm.Decision != AdmitShed {
			t.Fatalf("depth %d > crossover %d: got %v, want shed", depth, k, adm.Decision)
		}
		if adm.Crossover != k {
			t.Fatalf("shed at depth %d reports crossover %d, want %d", depth, adm.Crossover, k)
		}
	}
	// Queue wait must grow linearly with depth: the priced wait at the
	// crossover plus one more slot is what pushed the response past patience.
	load.Queued = k
	atK := Admit([]Query{q}, 0, 1, -1, load, env)
	load.Queued = k + 1
	pastK := Admit([]Query{q}, 0, 1, -1, load, env)
	if !(pastK.Wait > atK.Wait) {
		t.Fatalf("wait not monotone across crossover: %g then %g", atK.Wait, pastK.Wait)
	}
}

func TestAdmitImpatientShedsOutright(t *testing.T) {
	env := NewEnv(2)
	q := admitLonerQuery()
	// Patience below even the saturated service time: nothing queues.
	load := AdmitLoad{Active: 6, Queued: 0, Patience: 1e-9}
	if k := QueueCrossover(q, load, env); k != -1 {
		t.Fatalf("crossover under impossible patience: got %d, want -1", k)
	}
	if adm := Admit([]Query{q}, 0, 1, -1, load, env); adm.Decision != AdmitShed {
		t.Fatalf("impossible patience: got %v, want shed", adm.Decision)
	}
}

func TestShedVictimLowestBenefitFirst(t *testing.T) {
	env := NewEnv(2)
	active := 12
	// The sharer rides an existing group; the loner pays its full way. At
	// the same load the sharer's predicted per-query rate is strictly
	// higher, so the loner is the one a full window sheds.
	sharer := AdmitBenefit([]Query{admitTestQuery()}, 4, 1, 1, active, env)
	loner := AdmitBenefit([]Query{admitLonerQuery()}, 0, 1, -1, active, env)
	if !(sharer > loner) {
		t.Fatalf("benefit ordering: sharer %g must beat loner %g", sharer, loner)
	}
	if v := ShedVictim([]float64{sharer, loner}); v != 1 {
		t.Fatalf("ShedVictim([sharer, loner]) = %d, want 1 (the loner)", v)
	}
	if v := ShedVictim([]float64{loner, sharer}); v != 0 {
		t.Fatalf("ShedVictim([loner, sharer]) = %d, want 0 (the loner)", v)
	}
	// Ties yield the younger (later) arrival; empty input has no victim.
	if v := ShedVictim([]float64{1, 1, 1}); v != 2 {
		t.Fatalf("tie-break: got %d, want 2", v)
	}
	if v := ShedVictim(nil); v != -1 {
		t.Fatalf("empty: got %d, want -1", v)
	}
}

func TestAdmitDegenerateInputs(t *testing.T) {
	env := NewEnv(2)
	if adm := Admit(nil, 0, 1, -1, AdmitLoad{}, env); adm.Decision != AdmitShed {
		t.Fatalf("no candidates: got %v, want shed", adm.Decision)
	}
	// Negative load fields clamp instead of corrupting the arithmetic.
	adm := Admit([]Query{admitTestQuery()}, 0, 1, -1, AdmitLoad{Active: -3, Queued: -7}, env)
	if adm.Decision != AdmitAlone {
		t.Fatalf("clamped negative load: got %v, want admit-alone", adm.Decision)
	}
	if math.IsNaN(adm.Rate) || math.IsInf(adm.Rate, 0) {
		t.Fatalf("clamped negative load: non-finite rate %g", adm.Rate)
	}
}

// The decision labels travel in wire responses and reports, so each one is
// fixed.
func TestAdmitDecisionString(t *testing.T) {
	for _, c := range []struct {
		d    AdmitDecision
		want string
	}{
		{AdmitShared, "admit-shared"},
		{AdmitAlone, "admit-alone"},
		{AdmitQueue, "queue"},
		{AdmitShed, "shed"},
		{AdmitShed + 1, "AdmitDecision(?)"},
	} {
		t.Run(c.want, func(t *testing.T) {
			if got := c.d.String(); got != c.want {
				t.Errorf("AdmitDecision(%d).String() = %q, want %q", int(c.d), got, c.want)
			}
		})
	}
}
