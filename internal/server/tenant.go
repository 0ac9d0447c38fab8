package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// pending is one admitted-to-queue query: everything needed to submit it
// later (spec, policy inputs) plus everything needed to answer its client
// (response writer, arrival time, the benefit the shed policy ranks by).
type pending struct {
	req     Request
	conn    *conn
	cands   []core.Query
	arrived time.Time
	// plan is what the cluster submits: a sharded server's precompiled
	// scatter-gather form, or the route-whole plan of the family's spec.
	plan engine.ShardPlan
	// benefit is the predicted post-admission completion rate of this query
	// (core.AdmitBenefit at enqueue time); when the global queue overflows,
	// the entry with the lowest benefit is shed first.
	benefit float64
}

// tenantQueue is one tenant's FIFO backlog. Dispatch is FIFO within a
// tenant and round-robin across tenants, so one chatty tenant cannot starve
// the rest out of the admission window.
type tenantQueue struct {
	name string
	fifo []*pending
}

func (t *tenantQueue) push(p *pending) { t.fifo = append(t.fifo, p) }

func (t *tenantQueue) pop() *pending {
	if len(t.fifo) == 0 {
		return nil
	}
	p := t.fifo[0]
	t.fifo[0] = nil
	t.fifo = t.fifo[1:]
	return p
}

// remove deletes the queue entry at index i, preserving FIFO order.
func (t *tenantQueue) remove(i int) *pending {
	p := t.fifo[i]
	t.fifo = append(t.fifo[:i], t.fifo[i+1:]...)
	return p
}

// tenantOf returns (creating on demand) the named tenant's queue. New
// tenants join the round-robin rotation at the end.
func (s *Server) tenantOf(name string) *tenantQueue {
	if name == "" {
		name = "default"
	}
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantQueue{name: name}
		s.tenants[name] = t
		s.tenantOrder = append(s.tenantOrder, name)
	}
	return t
}

// nextQueuedLocked pops the next queued query round-robin across tenants,
// FIFO within each. Returns nil when every FIFO is empty.
func (s *Server) nextQueuedLocked() *pending {
	n := len(s.tenantOrder)
	for i := 0; i < n; i++ {
		t := s.tenants[s.tenantOrder[s.rr%n]]
		s.rr++
		if p := t.pop(); p != nil {
			s.queued--
			return p
		}
	}
	return nil
}

// shedLowestBenefitLocked resolves a full queue against a newcomer: rank
// every queued entry plus the newcomer by predicted benefit and shed the
// lowest (ties shed the newcomer — it has waited least). Returns the victim,
// which is the newcomer itself when everything queued outranks it; the
// caller answers the victim and, if it wasn't the newcomer, enqueues the
// newcomer in the freed slot.
func (s *Server) shedLowestBenefitLocked(newcomer *pending) *pending {
	type slot struct {
		t *tenantQueue
		i int
	}
	var slots []slot
	var benefits []float64
	for _, name := range s.tenantOrder {
		t := s.tenants[name]
		for i, p := range t.fifo {
			slots = append(slots, slot{t, i})
			benefits = append(benefits, p.benefit)
		}
	}
	// The newcomer goes last: core.ShedVictim breaks ties toward the later
	// index, i.e. toward the entry that has invested the least waiting.
	benefits = append(benefits, newcomer.benefit)
	v := core.ShedVictim(benefits)
	if v < 0 || v == len(slots) {
		return newcomer
	}
	victim := slots[v].t.remove(slots[v].i)
	s.queued--
	return victim
}
