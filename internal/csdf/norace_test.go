//go:build !race

package csdf

const raceEnabled = false
