package manager

import (
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
)

// Run-time fault injection and recovery. Failing a tile or link flips
// the resource's Failed flag under the platform lock — every in-flight
// plan that touches it validates after the flip and sees the failure —
// and then evacuates the residents the resource carried: each one's reservations are released (it cannot
// keep running on dead silicon) and a relocation round tries to refit
// its mapping onto the surviving mesh, where canHost and the NoC router
// already exclude failed resources. Only when no refit commits is the
// resident dropped. The split is reported per fault (FaultReport) and
// accumulated in Stats.FaultRelocated / Stats.FaultDropped.

// FaultReport summarises one fault injection and its recovery.
type FaultReport struct {
	// Failed is false when nothing changed: the resource was already
	// failed, or the ID is unknown.
	Failed bool
	// Residents lists the applications that held reservations on the
	// failed resource, in admission order. Relocated and Dropped
	// partition it by evacuation outcome.
	Residents []string
	Relocated []string
	Dropped   []string
	// Recover is the wall time from the fault to the last resident's
	// outcome — the mesh's time-to-recover for this fault.
	Recover time.Duration
}

// FailTile marks the tile failed and evacuates its residents. Safe for
// concurrent use with admissions, stops and other faults.
func (m *Manager) FailTile(id arch.TileID) FaultReport {
	if id < 0 || int(id) >= len(m.plat.Tiles) {
		return FaultReport{}
	}
	return m.failResource(func() bool { return m.plat.FailTile(id) },
		journal.Event{Type: journal.EvFailTile, Tile: id},
		func(p *core.Plan) bool { return p.UsesTile(id) })
}

// FailLink marks the link failed and evacuates the residents routing
// through it.
func (m *Manager) FailLink(id arch.LinkID) FaultReport {
	if id < 0 || int(id) >= len(m.plat.Links) {
		return FaultReport{}
	}
	return m.failResource(func() bool { return m.plat.FailLink(id) },
		journal.Event{Type: journal.EvFailLink, Link: id},
		func(p *core.Plan) bool { return p.UsesLink(id) })
}

// RestoreTile returns a failed tile to service, reporting whether
// anything changed. Its ledger was kept intact through the failure, so
// the capacity the evacuation could not move (dropped residents were
// released) is immediately admissible again.
func (m *Manager) RestoreTile(id arch.TileID) bool {
	if id < 0 || int(id) >= len(m.plat.Tiles) {
		return false
	}
	return m.restoreResource(func() bool { return m.plat.RestoreTile(id) },
		journal.Event{Type: journal.EvRestoreTile, Tile: id})
}

// RestoreLink returns a failed link to service.
func (m *Manager) RestoreLink(id arch.LinkID) bool {
	if id < 0 || int(id) >= len(m.plat.Links) {
		return false
	}
	return m.restoreResource(func() bool { return m.plat.RestoreLink(id) },
		journal.Event{Type: journal.EvRestoreLink, Link: id})
}

// flipResource flips one resource's Failed flag and journals the change,
// both under the platform lock; it reports whether anything changed. It
// is the one reservation-state write outside transact.
func (m *Manager) flipResource(flip func() bool, ev journal.Event) bool {
	m.platMu.Lock()
	ok := flip()
	if ok {
		m.journalEvent(ev)
	}
	m.platMu.Unlock()
	return ok
}

// failResource is the shared fail-and-evacuate machinery: flip the flag,
// claim every resident whose plan touches the resource, release each one
// (journaled as a fault release) and try to relocate it.
func (m *Manager) failResource(fail func() bool, ev journal.Event,
	uses func(*core.Plan) bool) FaultReport {
	start := time.Now()
	if !m.flipResource(fail, ev) {
		return FaultReport{}
	}
	rep := FaultReport{Failed: true}
	m.mu.Lock()
	m.stats.FaultsInjected++
	m.mu.Unlock()

	// Claim-then-inspect: a resident's plan may be swapped by a
	// concurrent relocation, so it is only read under a claim
	// (claimVictim wins or the resident is someone else's problem — a
	// concurrent Stop or preemption already owns its release).
	var victims []*Admission
	for _, ad := range m.Running() {
		if !m.claimVictim(ad) {
			continue
		}
		if !uses(ad.plan) {
			m.unclaimVictims([]*Admission{ad})
			continue
		}
		victims = append(victims, ad)
		rep.Residents = append(rep.Residents, ad.App.Name)
	}

	for _, v := range victims {
		name := v.App.Name
		m.transact([]change{{v.plan, journal.EvFaultRelease, name, v.Priority}}, change{})
		if ok, _, _ := m.relocate(v); ok {
			rep.Relocated = append(rep.Relocated, name)
		} else {
			rep.Dropped = append(rep.Dropped, name)
		}
	}
	m.mu.Lock()
	m.stats.FaultRelocated += uint64(len(rep.Relocated))
	m.stats.FaultDropped += uint64(len(rep.Dropped))
	m.mu.Unlock()
	rep.Recover = time.Since(start)
	return rep
}

// restoreResource flips a resource back into service.
func (m *Manager) restoreResource(restore func() bool, ev journal.Event) bool {
	ok := m.flipResource(restore, ev)
	if ok {
		m.mu.Lock()
		m.stats.Restores++
		m.mu.Unlock()
	}
	return ok
}
