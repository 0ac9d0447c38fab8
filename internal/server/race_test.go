//go:build race

package server

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation makes allocation counts differ from a plain build's.
const raceEnabled = true
