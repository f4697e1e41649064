//go:build race

package minijs

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
