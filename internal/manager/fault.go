package manager

import (
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
)

// Run-time fault injection and recovery. Failing a tile or link flips
// the resource's Failed flag under its region lock — which bumps the
// region version, so every in-flight plan whose footprint touches it
// re-validates and sees the failure — and then evacuates the residents
// the resource carried: each one's reservations are released (it cannot
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
	return m.failResource(m.plat.RegionOfTile(id),
		func() bool { return m.plat.FailTile(id) },
		journal.Event{Type: journal.EvFailTile, Tile: id},
		func(p *core.Plan) bool { return p.UsesTile(id) })
}

// FailLink marks the link failed and evacuates the residents routing
// through it.
func (m *Manager) FailLink(id arch.LinkID) FaultReport {
	if id < 0 || int(id) >= len(m.plat.Links) {
		return FaultReport{}
	}
	return m.failResource(m.plat.RegionOfLink(id),
		func() bool { return m.plat.FailLink(id) },
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
	return m.restoreResource(m.plat.RegionOfTile(id),
		func() bool { return m.plat.RestoreTile(id) },
		journal.Event{Type: journal.EvRestoreTile, Tile: id})
}

// RestoreLink returns a failed link to service.
func (m *Manager) RestoreLink(id arch.LinkID) bool {
	if id < 0 || int(id) >= len(m.plat.Links) {
		return false
	}
	return m.restoreResource(m.plat.RegionOfLink(id),
		func() bool { return m.plat.RestoreLink(id) },
		journal.Event{Type: journal.EvRestoreLink, Link: id})
}

// failResource is the shared fail-and-evacuate machinery: flip the flag
// and journal the fault under the resource's region lock, claim every
// resident whose plan touches the resource, release each one (journaled
// as a fault release under its footprint locks) and try to relocate it.
func (m *Manager) failResource(region arch.RegionID, fail func() bool,
	ev journal.Event, uses func(*core.Plan) bool) FaultReport {
	start := time.Now()
	rl := []arch.RegionID{region}
	m.locks.Lock(rl)
	ok := fail()
	if ok {
		m.journalEvent(ev)
	}
	m.locks.Unlock(rl)
	if !ok {
		return FaultReport{}
	}
	rep := FaultReport{Failed: true}
	m.mu.Lock()
	m.stats.FaultsInjected++
	m.mu.Unlock()

	// Claim-then-inspect: a resident's Result may be swapped by a
	// concurrent relocation, so its plan is only read under a claim
	// (claimVictim wins or the resident is someone else's problem — a
	// concurrent Stop or preemption already owns its release).
	type victim struct {
		ad   *Admission
		plan *core.Plan
	}
	var victims []victim
	for _, ad := range m.Running() {
		if !m.claimVictim(ad) {
			continue
		}
		plan, err := m.removalPlan(ad)
		if err != nil || !uses(plan) {
			m.unclaimVictims([]*Admission{ad})
			continue
		}
		victims = append(victims, victim{ad, plan})
		rep.Residents = append(rep.Residents, ad.App.Name)
	}

	for _, v := range victims {
		fp := v.plan.Regions()
		m.locks.Lock(fp)
		v.plan.Release(m.plat)
		m.journalPlan(journal.EvFaultRelease, v.ad.App.Name, v.ad.Priority, v.plan)
		m.locks.Unlock(fp)
		if m.relocateFaultVictim(v.ad) {
			rep.Relocated = append(rep.Relocated, v.ad.App.Name)
		} else {
			rep.Dropped = append(rep.Dropped, v.ad.App.Name)
		}
	}
	rep.Recover = time.Since(start)
	return rep
}

// restoreResource flips a resource back under its region lock.
func (m *Manager) restoreResource(region arch.RegionID, restore func() bool,
	ev journal.Event) bool {
	rl := []arch.RegionID{region}
	m.locks.Lock(rl)
	ok := restore()
	if ok {
		m.journalEvent(ev)
	}
	m.locks.Unlock(rl)
	if ok {
		m.mu.Lock()
		m.stats.Restores++
		m.mu.Unlock()
	}
	return ok
}

// relocateFaultVictim tries to keep an evacuated (already released)
// resident running by committing a relocated mapping, reporting whether
// it succeeded. It mirrors relocateVictim but books the outcome under
// the fault counters.
func (m *Manager) relocateFaultVictim(v *Admission) bool {
	if v.Result == nil || v.lib == nil {
		// Replay-rebuilt resident: journaled deltas are all that is known
		// about it — there is no mapping to refit. Drop it.
		m.dropFaultVictim(v)
		return false
	}
	vm := &core.Mapper{Lib: v.lib, Cfg: m.cfg}
	for attempt := 0; ; attempt++ {
		snap := m.Snapshot()
		rep, err := vm.Relocate(v.Result, snap)
		if err != nil {
			break // nothing to salvage or infeasible on the surviving mesh
		}
		plan, perr := core.NewPlan(m.plat, rep)
		if perr != nil {
			break
		}
		footprint := plan.Regions()
		m.locks.Lock(footprint)
		if plan.Validate(m.plat) == nil {
			plan.Commit(m.plat)
			m.journalPlan(journal.EvRelocate, v.App.Name, v.Priority, plan)
			m.locks.Unlock(footprint)
			m.mu.Lock()
			m.loadRelease(v)
			v.Result = rep
			m.loadCharge(v)
			delete(m.preempting, v.App.Name)
			m.running[v.App.Name] = v
			m.stats.FaultRelocated++
			m.mu.Unlock()
			return true
		}
		m.locks.Unlock(footprint)
		if attempt >= maxRetries {
			break
		}
	}
	m.dropFaultVictim(v)
	return false
}

// dropFaultVictim records a resident the evacuation could not re-place.
func (m *Manager) dropFaultVictim(v *Admission) {
	m.mu.Lock()
	// Journal the eviction before the name frees up, so a re-admission
	// of the same name appends after it.
	m.journalEvent(journal.Event{Type: journal.EvEvict, App: v.App.Name})
	delete(m.preempting, v.App.Name)
	m.loadRelease(v)
	m.stats.FaultDropped++
	m.mu.Unlock()
}
