package csdf

import "testing"

// What the external tests (package csdf_test, which may import the
// mapper without an import cycle) need of the internal ones: the
// reference engines, the result comparison and the engine counters.
var (
	ExecuteRef     = executeRef
	BufferSizesRef = bufferSizesRef
	SameResult     = sameResult
)

// RaceEnabled reports that the race detector is on.
const RaceEnabled = raceEnabled

// EngineCounts are the counters of engineCounts the external tests read.
type EngineCounts struct{ Runs, Streamed, Simulated, Laned, Heaped int64 }

// TrackEngines is trackEngines for the external tests.
func TrackEngines(tb testing.TB) func() EngineCounts {
	share := trackEngines(tb)
	return func() EngineCounts {
		c := share()
		return EngineCounts{Runs: c.runs, Streamed: c.streamed, Simulated: c.simulated, Laned: c.laned, Heaped: c.heaped}
	}
}
