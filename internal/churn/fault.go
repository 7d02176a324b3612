package churn

import (
	"math/rand"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/manager"
)

// faultTarget is one failable processing tile and the manager that owns
// it (fleet scenarios spread targets across every member mesh).
type faultTarget struct {
	m    *manager.Manager
	tile arch.TileID
}

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
	targets []faultTarget
	failed  []faultTarget

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
// the given managers' platforms. Returns nil when the rate is zero or no
// tile qualifies.
func newFaultInjector(rate float64, seed int64, mgrs []*manager.Manager) *faultInjector {
	if rate <= 0 {
		return nil
	}
	fi := &faultInjector{rate: rate, rng: rand.New(rand.NewSource(seed ^ 0xfa117))}
	for _, m := range mgrs {
		for _, id := range ProcTiles(m.Platform()) {
			fi.targets = append(fi.targets, faultTarget{m, id})
		}
	}
	if len(fi.targets) == 0 {
		return nil
	}
	return fi
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
		t := fi.failed[0]
		fi.failed = fi.failed[1:]
		t.m.RestoreTile(t.tile)
	}
	// A handful of redraws covers the (rare) case of drawing the tile
	// that is still failed; giving up after that keeps the loop bounded.
	for attempt := 0; attempt < 8; attempt++ {
		t := fi.targets[fi.rng.Intn(len(fi.targets))]
		rep := t.m.FailTile(t.tile)
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
		t.m.RestoreTile(t.tile)
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
