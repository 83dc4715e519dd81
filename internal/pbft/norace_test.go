//go:build !race

package pbft

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
