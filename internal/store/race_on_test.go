//go:build race

package store

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
