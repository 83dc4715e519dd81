//go:build race

package main

// raceEnabled reports whether the race detector is on; its slowdown makes
// the protocol's real-time timers fire where they never would otherwise.
const raceEnabled = true
