//go:build !race

package xlist

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
