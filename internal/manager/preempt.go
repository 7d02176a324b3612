package manager

import (
	"sort"
	"time"

	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
)

// The preemption planner: policy on top of the mechanism stack. The
// pipeline made admissions concurrent, repair made stale mappings cheap
// to refit, and a failed commit names the tiles and links it ran out of.
// Preemption composes all three: when a priority arrival finds the mesh
// full, the planner picks minimal-cost lower-priority victims that hold
// the failing plan's conflicted tiles or links, verifies on a
// hypothetical snapshot that their departure actually makes the arrival
// feasible, swaps them in one transaction and then tries to *relocate*
// each victim via core.Repair (against the post-eviction
// residual) before falling back to eviction.

// maxPreemptionVictims bounds how many lower-priority admissions one
// arrival may displace: past a few victims the hypothetical re-mapping
// rounds cost more than the arrival is worth, and the blast radius of a
// single admission stays contained.
const maxPreemptionVictims = 3

// victimCandidates lists running admissions of class strictly below prio,
// cheapest first: lowest class, then lowest mapped energy (a proxy for
// how much work a relocation must re-place), then admission order.
func (m *Manager) victimCandidates(prio model.Priority) []*Admission {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Admission
	for _, ad := range m.running {
		// Replay-rebuilt residents (nil Result) carry no mapping to
		// relocate and no energy to rank by; only faults displace them.
		if ad.Priority < prio && ad.Result != nil {
			out = append(out, ad)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority < out[j].Priority
		}
		ei, ej := out[i].Result.Energy.Total(), out[j].Result.Energy.Total()
		if ei != ej {
			return ei < ej
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// claimVictim moves a running admission into the preempting set, making
// it unstoppable (Stop returns ErrRelocating) and invisible to further
// victim selection. It reports false when the admission is no longer
// running — it stopped or was claimed by a competing preemption.
func (m *Manager) claimVictim(ad *Admission) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.running[ad.App.Name]
	if !ok || cur != ad {
		return false
	}
	delete(m.running, ad.App.Name)
	m.preempting[ad.App.Name] = ad
	return true
}

// unclaimVictims returns claimed victims to the running set untouched —
// the preemption did not go through.
func (m *Manager) unclaimVictims(victims []*Admission) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range victims {
		delete(m.preempting, v.App.Name)
		m.running[v.App.Name] = v
	}
}

// pruneVictims drops claimed victims whose eviction the found mapping
// does not actually rely on, returning the minimal suffix-greedy set.
// The greedy accumulation can collect dead weight: with no conflict
// attribution every cheapest candidate is tried first, and one that
// relieved nothing still sits in the set when a later victim finally
// makes the arrival fit. Each victim is re-checked by validating the
// mapping against a hypothetical platform where everyone else in the
// set is evicted but this victim stays; a victim that passes is
// unclaimed unharmed. Validation is a residual-capacity scan — no
// mapper rounds — so the prune costs one snapshot per kept-back check.
func (m *Manager) pruneVictims(victims []*Admission, res *core.Result) []*Admission {
	if len(victims) <= 1 {
		return victims
	}
	needed := victims
	for i := 0; i < len(needed); {
		probe := m.Snapshot()
		for j, v := range needed {
			if j != i {
				v.plan.Release(probe.Plat)
			}
		}
		if core.Validate(probe.Plat, res) == nil {
			m.unclaimVictims([]*Admission{needed[i]})
			needed = append(needed[:i], needed[i+1:]...)
		} else {
			i++
		}
	}
	return needed
}

// preemptAdmit tries to admit a priority arrival by displacing
// lower-priority victims. It is called on the rejection path, outside all
// locks, with target naming the tiles and links the failing plan ran out
// of (nil = no attribution, every victim eligible). On success the
// arrival is admitted, out is finished and true is returned; on failure
// nothing has changed and the caller proceeds to reject as before.
func (m *Manager) preemptAdmit(out *Outcome, tally *Stats, app *model.Application, lib *model.Library,
	mapper *core.Mapper, prio model.Priority, target []core.ValidationError) bool {
	cands := m.victimCandidates(prio)
	if len(cands) == 0 {
		return false
	}

	// Greedy victim accumulation on a hypothetical platform: evict the
	// cheapest overlapping candidate, re-map, repeat until the arrival
	// fits or the victim budget is spent. All of this runs on the
	// snapshot's copy — the live platform is untouched and unlocked.
	// A candidate is claimed before its plan is read: once claimed, nobody
	// else (Stop, a competing preemptor's relocation) touches the
	// admission, so the read is race-free; a candidate that holds none of
	// the target resources is unclaimed straight away.
	mapStart := time.Now()
	snap := m.Snapshot()
	var victims []*Admission
	var res *core.Result
	for _, cand := range cands {
		if len(victims) == maxPreemptionVictims {
			break
		}
		if !m.claimVictim(cand) {
			continue
		}
		if target != nil && !cand.plan.Overlaps(target) {
			m.unclaimVictims([]*Admission{cand})
			continue
		}
		victims = append(victims, cand)
		cand.plan.Release(snap.Plat)
		r, err := mapper.Map(app, snap.Plat)
		if err != nil {
			break
		}
		if r.Feasible {
			res = r
			break
		}
	}
	if res != nil {
		victims = m.pruneVictims(victims, res)
	}
	out.Map += time.Since(mapStart)
	if res == nil {
		m.unclaimVictims(victims)
		return false
	}

	// Atomic swap, one transaction: release the victims, re-validate the
	// arrival against the live platform (a competing admission may have
	// landed since the hypothetical snapshot), commit or roll everything
	// back.
	commitStart := time.Now()
	nplan, err := core.NewPlan(m.plat, res)
	if err == nil {
		removals := make([]change, len(victims))
		for i, v := range victims {
			removals[i] = change{v.plan, journal.EvPreemptRelease, v.App.Name, v.Priority}
		}
		// A conflict here is a race lost since the hypothetical
		// snapshot; transact rolled the evictions back and the caller
		// rejects. Preemption is a last resort, not a retry loop.
		err = m.transact(removals, change{nplan, journal.EvAdmit, app.Name, prio})
	}
	out.Commit += time.Since(commitStart)
	if err != nil {
		m.unclaimVictims(victims)
		return false
	}

	m.mu.Lock()
	m.seq++
	ad := &Admission{App: app, Result: res, Seq: m.seq, Priority: prio, lib: lib, plan: nplan}
	m.running[app.Name] = ad
	for _, v := range victims {
		out.Preempted = append(out.Preempted, v.App.Name)
	}
	m.mu.Unlock()

	// Relocation before eviction: each victim's stale mapping is refit
	// against the post-swap residual — typically most placements survive
	// and only the overlap with the new arrival is re-placed — and only
	// when no refit commits is the victim truly gone. This runs before
	// finishLocked so the relocation repair/commit time lands in the
	// Outcome — displacing victims is part of what this admission cost.
	tally.Preemptions += uint64(len(victims))
	for _, v := range victims {
		ok, repair, commit := m.relocate(v)
		out.Repair += repair
		out.Commit += commit
		if ok {
			tally.Relocations++
		} else {
			tally.Evictions++
		}
	}
	m.mu.Lock()
	m.finishLocked(out, tally, ad, nil)
	m.mu.Unlock()
	return true
}

// relocate tries to keep a displaced resident running. The resident is
// claimed and its reservations are already released — by a preemption
// swap or a fault evacuation; relocate refits its mapping to what is left
// (core.Repair against a fresh snapshot, never falling back to a full
// map, retried while the commit loses races, at most maxRetries times)
// and either returns it to the running set on the new placement or
// records its eviction. It reports which, with the time spent refitting
// and committing; the caller books the outcome under its own counter
// pair (Relocations/Evictions, FaultRelocated/FaultDropped). Runs outside
// all locks except the short transactions.
func (m *Manager) relocate(v *Admission) (ok bool, repair, commit time.Duration) {
	var rep *core.Result
	var repPlan *core.Plan
	// A replay-rebuilt resident has no mapping to refit: journaled
	// deltas are all that is known about it.
	if v.Result != nil && v.lib != nil {
		vm := &core.Mapper{Lib: v.lib, Cfg: m.cfg}
		for attempt := 0; attempt <= maxRetries; attempt++ {
			repairStart := time.Now()
			r, err := vm.Repair(v.Result, m.Snapshot())
			repair += time.Since(repairStart)
			if err != nil || !r.Feasible {
				break // nothing to salvage, or infeasible on what is left
			}
			commitStart := time.Now()
			plan, err := core.NewPlan(m.plat, r)
			if err != nil {
				break
			}
			err = m.transact(nil, change{plan, journal.EvRelocate, v.App.Name, v.Priority})
			commit += time.Since(commitStart)
			if err == nil {
				rep, repPlan = r, plan
				break
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rep == nil {
		// Journal the eviction before the name frees up: a re-admission
		// of the same name must append after it, or replay would apply
		// the eviction to the newcomer.
		m.journalEvent(journal.Event{Type: journal.EvEvict, App: v.App.Name})
		delete(m.preempting, v.App.Name)
		return false, repair, commit
	}
	v.Result, v.plan = rep, repPlan
	delete(m.preempting, v.App.Name)
	m.running[v.App.Name] = v
	return true, repair, commit
}
