package engine

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain runs the package's tests, then fails the run if a scheduler
// worker goroutine outlived them: every test that starts a pool must stop it
// (Engine.Close, Cluster.Close or Scheduler.Stop), or a leaked pool keeps
// spinning under every later test.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := leakedWorkers(2 * time.Second); stacks != nil {
			fmt.Fprintf(os.Stderr, "%d scheduler worker goroutines still alive after every test returned:\n\n%s\n",
				len(stacks), strings.Join(stacks, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedWorkers returns the stacks of live (*Scheduler).worker goroutines,
// polling for up to wait: Stop returns once its workers signal the wait
// group, a moment before their goroutines exit.
func leakedWorkers(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		var leaked []string
		for _, g := range strings.Split(allStacks(), "\n\n") {
			if strings.Contains(g, ".(*Scheduler).worker(") {
				leaked = append(leaked, g)
			}
		}
		if leaked == nil || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// allStacks returns every goroutine's stack, blank-line separated.
func allStacks() string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
