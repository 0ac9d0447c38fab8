//go:build race

package relop

// raceEnabled reports whether the tests run under the race detector, whose
// sync.Pool drops a random share of puts.
const raceEnabled = true
