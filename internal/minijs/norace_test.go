//go:build !race

package minijs

const raceEnabled = false
