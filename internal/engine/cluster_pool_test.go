package engine

import (
	"testing"
	"time"
)

// A cluster's shards run on one pool that only the cluster stops: a paused
// cluster runs nothing until Cluster.Start, or until a shard's Start, which
// starts the whole pool; closing one shard leaves the pool serving the
// others; and Cluster.Close stops the pool once, a second call being a
// no-op.
func TestClusterPoolLifecycle(t *testing.T) {
	spec := drainSpec(t, 64)
	wait := func(what string, h *Handle) {
		t.Helper()
		select {
		case <-h.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: query never completed", what)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	submit := func(e *Engine) *Handle {
		t.Helper()
		h, err := e.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	for _, viaShard := range []bool{false, true} {
		c, err := NewCluster(2, Options{Workers: 1, StartPaused: true})
		if err != nil {
			t.Fatal(err)
		}
		if c.sched.Workers() != 2 {
			t.Fatalf("pool has %d workers, want 2 (2 shards × 1)", c.sched.Workers())
		}
		for i, e := range c.shards {
			if e.sched != c.sched {
				t.Fatalf("shard %d runs on a pool of its own", i)
			}
		}
		h := submit(c.Shard(1))
		select {
		case <-h.done:
			t.Fatal("a paused cluster ran a query")
		case <-time.After(20 * time.Millisecond):
		}
		if viaShard {
			c.Shard(0).Start() // starts the pool shard 1 runs on too
		} else {
			c.Start()
		}
		wait("after Start", h)

		c.Shard(0).Close()
		if c.sched.stopped.Load() {
			t.Fatal("closing shard 0 stopped the cluster's pool")
		}
		wait("on shard 1 after shard 0 closed", submit(c.Shard(1)))

		c.Close()
		if !c.sched.stopped.Load() {
			t.Fatal("Cluster.Close left the pool running")
		}
		closed := make(chan struct{})
		go func() {
			c.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("a second Cluster.Close did not return")
		}
	}
}
