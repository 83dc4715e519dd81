//go:build race

package crypto

// raceEnabled reports whether the race detector is on; under it sync.Pool
// drops pooled items at random, so allocation counts are not meaningful.
const raceEnabled = true
