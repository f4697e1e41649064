//go:build race

package report

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
