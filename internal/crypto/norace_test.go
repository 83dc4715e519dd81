//go:build !race

package crypto

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
