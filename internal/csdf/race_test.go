//go:build race

package csdf

// raceEnabled reports that the race detector is on. sync.Pool then drops
// items at random, so allocation counts stop meaning anything.
const raceEnabled = true
