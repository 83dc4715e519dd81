//go:build race

package pbft

// raceEnabled reports whether the race detector is on; it instruments
// allocations, so allocation counts are not meaningful under it.
const raceEnabled = true
