//go:build race

package crawlerbox

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
