//go:build !race

package relop

const raceEnabled = false
