package churn

import (
	"math/rand"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/manager"
)

// faultInjector drives Options.FaultRate: a deterministic accumulator
// fires a tile fault every 1/rate arrivals, aimed at a pseudo-random
// processing tile. At most one tile is failed at a time — the previous
// failure is restored before the next one lands, modelling a repair
// crew that swaps one field-replaceable unit at a time — and restoreAll
// returns the mesh to full capacity before the scenario's final
// pristine check. A nil injector is inert, so the scenario loop calls
// it unconditionally.
type faultInjector struct {
	rate    float64
	acc     float64
	rng     *rand.Rand
	m       *manager.Manager
	targets []arch.TileID
	failed  []arch.TileID

	injected     int
	recoverTotal time.Duration
	recoverMax   time.Duration
}

// ProcTiles lists a platform's failable processing tiles. Stream
// endpoints and filler tiles are spared: failing an arrival's pinned
// SRC/SINK would measure workload starvation, not recovery.
func ProcTiles(plat *arch.Platform) []arch.TileID {
	var ids []arch.TileID
	for _, t := range plat.Tiles {
		switch t.Type {
		case arch.TypeSource, arch.TypeSink, arch.TypeNone:
			continue
		}
		ids = append(ids, t.ID)
	}
	return ids
}

// newFaultInjector builds the injector over every processing tile of
// the manager's platform. Returns nil when the rate is zero or no tile
// qualifies.
func newFaultInjector(rate float64, seed int64, m *manager.Manager) *faultInjector {
	targets := ProcTiles(m.Platform())
	if rate <= 0 || len(targets) == 0 {
		return nil
	}
	return &faultInjector{rate: rate, rng: rand.New(rand.NewSource(seed ^ 0xfa117)), m: m, targets: targets}
}

// step advances the accumulator by one arrival and injects the faults
// it earns.
func (fi *faultInjector) step() {
	if fi == nil {
		return
	}
	fi.acc += fi.rate
	for fi.acc >= 1 {
		fi.acc--
		fi.injectOne()
	}
}

// injectOne restores the oldest outstanding failure, then fails a fresh
// pseudo-random target and books its recovery report.
func (fi *faultInjector) injectOne() {
	if len(fi.failed) > 0 {
		fi.m.RestoreTile(fi.failed[0])
		fi.failed = fi.failed[1:]
	}
	// A handful of redraws covers the (rare) case of drawing the tile
	// that is still failed; giving up after that keeps the loop bounded.
	for attempt := 0; attempt < 8; attempt++ {
		t := fi.targets[fi.rng.Intn(len(fi.targets))]
		rep := fi.m.FailTile(t)
		if !rep.Failed {
			continue
		}
		fi.failed = append(fi.failed, t)
		fi.injected++
		fi.recoverTotal += rep.Recover
		if rep.Recover > fi.recoverMax {
			fi.recoverMax = rep.Recover
		}
		return
	}
}

// restoreAll returns every still-failed tile to service.
func (fi *faultInjector) restoreAll() {
	if fi == nil {
		return
	}
	for _, t := range fi.failed {
		fi.m.RestoreTile(t)
	}
	fi.failed = nil
}

// record copies the injector's aggregates into the result.
func (fi *faultInjector) record(r *Result) {
	if fi == nil {
		return
	}
	r.FaultRecoverTotal = fi.recoverTotal
	r.FaultRecoverMax = fi.recoverMax
}
