//go:build race

package store

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
