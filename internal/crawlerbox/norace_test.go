//go:build !race

package crawlerbox

const raceEnabled = false
