package manager

import (
	"sync/atomic"

	"rtsm/internal/arch"
	"rtsm/internal/core"
)

// LoadEstimate is the manager's lock-free utilization summary, maintained
// incrementally as admissions commit and leave. The stream server's
// dead-letter queue samples it before every retry round, so reads must
// not touch either of the manager's mutexes: the counter is a plain
// atomic, and the capacity is static (derived from the platform's
// processing-tile count at construction). The number is an estimate in
// the same sense the mapper's are — each admission's utilization is the
// sum of its processes' cycle budgets at commit time, not a measurement —
// but it moves in exact lockstep with the resident population.
type LoadEstimate struct {
	utilMilli atomic.Int64 // thousandths of a tile, summed over residents
	capMilli  int64        // 1000 per processing tile
}

// Utilization returns the fraction of the mesh's processing capacity the
// residents reserve, in [0,1] (clamped; a zero-capacity platform reads
// as fully loaded).
func (l *LoadEstimate) Utilization() float64 {
	if l.capMilli <= 0 {
		return 1
	}
	u := float64(l.utilMilli.Load()) / float64(l.capMilli)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// LoadEstimate exposes the manager's lock-free load estimate (distinct
// from Load, which walks the platform under the platform lock for an
// exact occupancy summary). The pointer is stable for the manager's
// lifetime.
func (m *Manager) LoadEstimate() *LoadEstimate { return &m.load }

// initLoadCapacity sizes the static capacity from the platform's
// processing tiles. Called once from New, before any admission.
func (m *Manager) initLoadCapacity() {
	var tiles int64
	for _, tt := range m.plat.TileTypes() {
		if tt == arch.TypeSource || tt == arch.TypeSink {
			continue
		}
		tiles += int64(len(m.plat.TilesOfType(tt)))
	}
	m.load.capMilli = tiles * 1000
}

// loadCharge computes and caches an admission's contribution to the load
// estimate — the per-tile utilization its plan reserves, in milli-tiles —
// and charges it. Called once per committed plan (admission, relocation,
// replay); the cached value makes the eventual loadRelease subtract
// exactly what was added.
func (m *Manager) loadCharge(ad *Admission) {
	tiles, _ := ad.plan.Deltas()
	m.loadChargeTiles(ad, tiles)
}

// loadChargeTiles is loadCharge for a caller that already holds the
// plan's tile deltas (replay reads them off the journal event). It sums
// them in milli-tiles, truncating per tile: the load estimate is
// advisory; unlike the ledger it never needs to be exact.
func (m *Manager) loadChargeTiles(ad *Admission, tiles []core.TileReservation) {
	ad.loadUtilMilli = 0
	for _, t := range tiles {
		ad.loadUtilMilli += int64(t.Util * 1000)
	}
	m.load.utilMilli.Add(ad.loadUtilMilli)
}

// loadRelease reverses loadCharge when an admission stops or is evicted.
func (m *Manager) loadRelease(ad *Admission) {
	m.load.utilMilli.Add(-ad.loadUtilMilli)
}
