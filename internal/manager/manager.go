// Package manager implements the on-line resource manager the paper's
// setting presumes (§1.3: "the spatial mapping is performed always when a
// new streaming application is started"): applications arrive and leave at
// run time, each arrival is mapped against the platform's actual residual
// resources, admitted if a feasible mapping exists, and holds its
// reservations until it stops. This is the component a deployment would
// run on the control processor; cmd/serve and experiment E12 exercise
// it.
//
// Admission is a concurrent pipeline. The expensive part of an admission —
// the four-step spatial mapping — runs outside the platform lock, against
// a point-in-time Snapshot of the platform's residual state, so many
// arrivals can be mapped in parallel. Only the commit takes the lock, for
// microseconds: it always re-validates the plan against the live platform
// (see transact) and, when a competing admission claimed the resources
// since the snapshot was taken, re-snapshots and repairs or re-maps —
// optimistic concurrency with bounded retries. Use Pipeline for a bounded
// work queue feeding N admission workers.
package manager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
)

// maxRetries bounds how many times one admission re-maps after a commit
// conflict or a stale infeasible verdict before giving up.
const maxRetries = 3

// Admission records one running application.
type Admission struct {
	App    *model.Application
	Result *core.Result
	// Seq is the admission order, for deterministic reporting.
	Seq int
	// Priority is the admission's QoS class, fixed at admission time from
	// the application's spec. It decides who may preempt whom: a full-mesh
	// arrival of a higher class may displace this admission.
	Priority model.Priority

	// lib is the implementation library the application was admitted
	// with, kept so a preempted admission can be relocated (re-placed)
	// without the original caller's involvement.
	lib *model.Library

	// plan is the reservation plan the admission committed — or, for a
	// replay-rebuilt resident whose Result and lib did not survive the
	// crash, the one rebuilt from its journaled deltas. Stop, preemption
	// and the fault evacuation release it verbatim; relocate replaces it
	// together with Result.
	plan *core.Plan
}

// Library returns the implementation library the application was admitted
// with.
func (a *Admission) Library() *model.Library { return a.lib }

// RejectionError reports why an application was not admitted.
type RejectionError struct {
	App    string
	Reason string
	// Retryable distinguishes capacity verdicts from structural ones. A
	// retryable rejection means the mesh is out of room (no feasible
	// mapping at current occupancy, commit retries exhausted under
	// contention) — the identical application could well be admitted
	// later. Non-retryable rejections are properties of the application
	// itself (unknown pinned tiles, no implementations for a process) and
	// will fail identically every time.
	Retryable bool
}

// Error renders the rejection with the application name and reason.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("manager: %q rejected: %s", e.App, e.Reason)
}

// IsRetryableRejection reports whether err is a rejection that a later
// attempt could plausibly admit. The dead-letter queue and the door's
// retry loop key off this: capacity rejections are parked or retried,
// structural ones are final.
func IsRetryableRejection(err error) bool {
	var rej *RejectionError
	return errors.As(err, &rej) && rej.Retryable
}

// Outcome is the full per-admission report of one Admit call: how it
// ended, how many mapping rounds it took and where the time went.
type Outcome struct {
	App string
	// Admitted is true when the application now holds reservations.
	Admitted bool
	// Attempts counts mapping rounds: 1 for a clean admission, more when
	// commit conflicts or stale snapshots forced a re-map.
	Attempts int
	// Wait is the time spent queued before a pipeline worker picked the
	// request up (zero for direct Admit/Start calls).
	Wait time.Duration
	// Map is the total time spent in full four-step mapping, outside the
	// platform lock, summed over attempts.
	Map time.Duration
	// Repair is the total time spent in incremental repair of stale
	// mappings, also outside the platform lock.
	Repair time.Duration
	// Commit is the total time spent in the serialized commit section.
	Commit time.Duration
	// Repaired is true when the committed mapping came from core.Repair
	// rather than a full four-step map.
	Repaired bool
	// Priority is the admission's QoS class (from the application's spec,
	// clamped to the valid range).
	Priority model.Priority
	// Preempted lists the names of lower-priority victims this admission
	// displaced to get in — each was relocated when possible and evicted
	// otherwise (see Stats.Relocations/Evictions for the split). Empty
	// for ordinary admissions.
	Preempted []string
	// Admission is the resulting reservation record, nil unless admitted.
	Admission *Admission
	// Err is nil when admitted and a *RejectionError (or duplicate-name
	// error) otherwise.
	Err error
}

// Stats aggregates admission outcomes over the manager's lifetime.
type Stats struct {
	Admitted uint64
	Rejected uint64
	// Conflicts counts commit attempts that found the platform changed in
	// a way that invalidated the speculative mapping.
	Conflicts uint64
	// Retries counts extra mapping rounds run because of conflicts or
	// stale snapshots (Attempts beyond the first, summed over arrivals).
	Retries uint64
	// TemplateHits counts admissions committed from a reused mapping
	// template without running the mapper (see Fingerprint).
	TemplateHits uint64
	// StaleTemplates counts template instantiations where a pool existed
	// but no remembered placement fit the live platform.
	StaleTemplates uint64
	// ConflictRetries counts mapping rounds re-entered after a commit
	// conflict (the retried subset of Conflicts).
	ConflictRetries uint64
	// RepairedConflicts and RepairedTemplates count conflict-retry and
	// stale-template rounds resolved by core.Repair: the round's mapping
	// came from refitting the stale one, no full four-step remap ran.
	// (Whether the commit then wins its own race is a separate event; a
	// lost commit shows up as a further ConflictRetries round.) Together
	// with FullRemaps they partition ConflictRetries + StaleTemplates.
	RepairedConflicts uint64
	RepairedTemplates uint64
	// FullRemaps counts conflict-retry and stale-template rounds that fell
	// back to the full four-step map (repair refused or infeasible).
	FullRemaps uint64
	// Snapshots counts the platform copies captured for admissions and
	// their retries. SnapshotsShared and CoWFaults are always 0: the
	// mechanisms they counted are deleted, and the fields leave with the
	// next benchmark-only change (bench/sut.go still reads them).
	Snapshots       uint64
	SnapshotsShared uint64
	CoWFaults       uint64
	// Preemptions counts lower-priority victims displaced so a
	// higher-priority arrival could be admitted on a full mesh. Every
	// preempted victim ends up in exactly one of Relocations (kept
	// running on a repaired placement, the preferred outcome) or
	// Evictions (released for good because no relocation fit).
	Preemptions uint64
	// Relocations counts preempted victims kept running: their stale
	// mapping was refit via core.Repair against the post-eviction
	// residual and recommitted.
	Relocations uint64
	// Evictions counts preempted victims that could not be relocated and
	// lost their reservations.
	Evictions uint64
	// FaultsInjected counts FailTile/FailLink calls that failed a live
	// resource; Restores counts resources returned to service. Every
	// resident evacuated off a failed resource ends up in exactly one of
	// FaultRelocated (kept running on a refit placement) or FaultDropped
	// (no relocation fit; its reservations are gone).
	FaultsInjected uint64
	FaultRelocated uint64
	FaultDropped   uint64
	Restores       uint64
	// ByClass splits admitted/rejected per priority class, indexed by
	// model.Priority.
	ByClass [model.NumPriorities]ClassStats
}

// Add folds o into s, field by field: a run that outlives one manager (a
// crash restarts the counters) reports the sum of every incarnation's.
func (s *Stats) Add(o Stats) {
	s.Admitted += o.Admitted
	s.Rejected += o.Rejected
	s.Conflicts += o.Conflicts
	s.Retries += o.Retries
	s.TemplateHits += o.TemplateHits
	s.StaleTemplates += o.StaleTemplates
	s.ConflictRetries += o.ConflictRetries
	s.RepairedConflicts += o.RepairedConflicts
	s.RepairedTemplates += o.RepairedTemplates
	s.FullRemaps += o.FullRemaps
	s.Snapshots += o.Snapshots
	s.SnapshotsShared += o.SnapshotsShared
	s.CoWFaults += o.CoWFaults
	s.Preemptions += o.Preemptions
	s.Relocations += o.Relocations
	s.Evictions += o.Evictions
	s.FaultsInjected += o.FaultsInjected
	s.FaultRelocated += o.FaultRelocated
	s.FaultDropped += o.FaultDropped
	s.Restores += o.Restores
	for c := range s.ByClass {
		s.ByClass[c].Admitted += o.ByClass[c].Admitted
		s.ByClass[c].Rejected += o.ByClass[c].Rejected
	}
}

// ClassStats is the per-priority-class share of the admission counters.
type ClassStats struct {
	Admitted uint64
	Rejected uint64
}

// AdmissionRate reports the fraction of the class's arrivals that were
// admitted; the second value is false when the class saw no arrivals.
func (s Stats) AdmissionRate(p model.Priority) (float64, bool) {
	c := s.ByClass[p.Clamp()]
	total := c.Admitted + c.Rejected
	if total == 0 {
		return 0, false
	}
	return float64(c.Admitted) / float64(total), true
}

// RepairRate reports the fraction of retry-or-stale rounds resolved by
// incremental repair instead of a full remap; the second value is false
// when no such round happened.
func (s Stats) RepairRate() (float64, bool) {
	denom := s.ConflictRetries + s.StaleTemplates
	if denom == 0 {
		return 0, false
	}
	return float64(s.RepairedConflicts+s.RepairedTemplates) / float64(denom), true
}

// Manager owns a platform and the set of admitted applications. All
// methods are safe for concurrent use.
//
// Two mutexes guard the manager's state; mu is never taken while holding
// platMu:
//
//   - platMu serializes the platform's reservation state: every write
//     (transact, flipResource) and every read of the live tiles and
//     links (Snapshot, Residual, Load, CheckInvariants). Journal appends
//     happen inside it, so journal order is commit order.
//   - mu serializes the admission bookkeeping: the running and pending
//     sets, the sequence counter and the statistics.
type Manager struct {
	cfg core.Config

	platMu sync.Mutex

	mu      sync.Mutex
	plat    *arch.Platform
	running map[string]*Admission
	pending map[string]struct{}
	// preempting holds admissions claimed by the preemption planner:
	// still reserving resources (until their union-locked release) or
	// mid-relocation, but no longer stoppable — Stop returns
	// ErrRelocating until the victim returns to running or is evicted.
	preempting map[string]*Admission
	seq        int
	stats      Stats
	// templates is the mapping template cache, built by New and guarded
	// by its own lock.
	templates *templateCache

	// jw is the durable admission journal, nil when journaling is off.
	// Wired once by SetJournal before the first admission and read
	// without a lock from every commit path.
	jw *journal.Writer
}

// New returns a manager over the given platform. The platform is owned by
// the manager from here on: reservations of admitted applications live on
// it, and all access to it is serialized behind the manager's platform
// lock.
func New(plat *arch.Platform, cfg core.Config) *Manager {
	return &Manager{
		plat:       plat,
		cfg:        cfg,
		running:    make(map[string]*Admission),
		pending:    make(map[string]struct{}),
		preempting: make(map[string]*Admission),
		templates:  newTemplateCache(),
	}
}

// SetRepair does nothing: a commit conflict or a stale template is always
// repaired — core.Repair pins everything that still fits and re-places
// only the conflicting processes — and the full four-step map runs only
// when repair refuses or comes back infeasible. The frozen benchmark
// (bench/sut.go) still calls it; delete it with the next benchmark-only
// change (ROADMAP item 1(c)).
func (m *Manager) SetRepair(bool) {}

// SetMappingReuse does nothing: the mapping template cache is always on
// (see Fingerprint). The frozen benchmark (bench/sut.go) still calls it;
// delete it with the next benchmark-only change (ROADMAP item 1(c)).
func (m *Manager) SetMappingReuse(bool) {}

// SetJournal wires the durable admission journal: every reservation
// change — admission, departure, preemption release, relocation,
// eviction, fault, restore — is appended inside the same platform-locked
// critical section that applies it, so journal order equals commit
// order; that, plus the per-plan aggregated deltas each event carries,
// is what lets ReplayEvents rebuild the platform bit for bit. Wire
// the journal before the first admission (the field is read without a
// lock on the hot path); nil disables journaling.
func (m *Manager) SetJournal(w *journal.Writer) { m.jw = w }

// change is one reservation plan together with the journal event that
// records its application: what transact releases or reserves. The zero
// value (nil plan) means "none".
type change struct {
	plan *core.Plan
	ev   journal.EventType
	app  string
	prio model.Priority
}

// transact is the manager's one reservation transaction — the only code
// that commits, releases or validates a plan on the live platform (replay,
// lock-free before the manager is shared, is the one exception). Under
// the platform lock it applies the removals, validates the reservation
// against the live platform — always: the mapper's verdict was reached on
// a snapshot — and commits it. When the reservation no longer fits, the
// removals are re-committed and its *core.ConflictError is returned.
// Every change is journaled inside the locked section that applies it,
// which is what keeps journal order equal to commit order and lets replay
// rebuild the platform bit for bit. A rolled-back removal is therefore
// journaled too, as a release followed by an EvRelocate: (x−u)+u is not x
// in float64, so replay must repeat the pair, not elide it.
//
// Callers: the template hit and the mapped commit of admit (reserve only),
// Stop and the fault evacuation (one removal), the preemption swap
// (removals plus the arrival) and relocate (reserve only).
func (m *Manager) transact(removals []change, reserve change) error {
	m.platMu.Lock()
	for _, r := range removals {
		r.plan.Release(m.plat)
		m.journalPlan(r)
	}
	var err error
	if reserve.plan != nil {
		if vs := reserve.plan.Violations(m.plat); len(vs) == 0 {
			reserve.plan.Commit(m.plat)
			m.journalPlan(reserve)
		} else {
			err = &core.ConflictError{App: reserve.app, Violations: vs}
			for _, r := range removals {
				r.plan.Commit(m.plat)
				r.ev = journal.EvRelocate
				m.journalPlan(r)
			}
		}
	}
	m.platMu.Unlock()
	return err
}

// journalPlan appends the change's event carrying its plan's aggregated
// deltas. Only transact calls it, holding the platform lock.
func (m *Manager) journalPlan(c change) {
	if m.jw == nil {
		return
	}
	tiles, links := c.plan.Deltas()
	m.jw.Append(journal.Event{Type: c.ev, App: c.app, Priority: int(c.prio), Tiles: tiles, Links: links})
}

// journalEvent appends a delta-free event (fault, restore, evict).
func (m *Manager) journalEvent(e journal.Event) {
	if m.jw == nil {
		return
	}
	m.jw.Append(e)
}

// Platform exposes the managed platform. Its shape and the tiles' and
// links' immutable description (arch.TileInfo, arch.LinkInfo) may be read
// at any time; reservation state is safe to read only while no admissions
// are in flight — concurrent inspectors use Snapshot or Residual instead.
func (m *Manager) Platform() *arch.Platform { return m.plat }

// Snapshot returns a point-in-time copy of the managed platform, taken
// under the platform lock: it holds every committed plan whole or not at
// all, and is the caller's own to mutate.
func (m *Manager) Snapshot() *arch.Snapshot {
	m.platMu.Lock()
	defer m.platMu.Unlock()
	return m.plat.Snapshot()
}

// snapPool recycles the platform copies admissions map against: admit
// takes one, refills it for every round and puts it back when it returns.
// Nothing an admission keeps points into it — its Result and plan hold
// IDs and slices of their own.
var snapPool = sync.Pool{New: func() any { return &arch.Snapshot{Plat: new(arch.Platform)} }}

// snapshot overwrites s with a copy of the live platform taken under the
// platform lock, as Snapshot does, counted in the admission's tally: what
// an admission maps its first round and every retry round against.
func (m *Manager) snapshot(s *arch.Snapshot, tally *Stats) {
	m.platMu.Lock()
	m.plat.CopyInto(s.Plat)
	s.Version = m.plat.Version()
	m.platMu.Unlock()
	tally.Snapshots++
}

// Residual returns the platform's current free-capacity view, read under
// the platform lock.
func (m *Manager) Residual() arch.Residual {
	m.platMu.Lock()
	defer m.platMu.Unlock()
	return m.plat.Residual()
}

// Stats returns a copy of the accumulated admission statistics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Start maps the application against the current platform state and
// admits it when feasible. Application names identify admissions and must
// be unique among running applications. Start is Admit without the
// outcome report.
func (m *Manager) Start(app *model.Application, lib *model.Library) (*Admission, error) {
	out := m.Admit(app, lib)
	if out.Err != nil {
		return nil, out.Err
	}
	return out.Admission, nil
}

// Admit runs one admission through the pipeline — snapshot, speculative
// map, serialized validate-and-commit, bounded retry — and reports the
// outcome. The admission's priority is the application's QoS class
// (app.QoS.Priority): above BestEffort, an arrival that would be rejected
// for lack of resources may displace minimal-cost lower-priority
// admissions, each relocated via core.Repair when the post-eviction
// residual allows it and evicted otherwise. Rejections are reported in
// Outcome.Err, not returned.
func (m *Manager) Admit(app *model.Application, lib *model.Library) Outcome {
	return m.admit(app, lib, 0)
}

// repairTrigger classifies why a round starts from a stale mapping, for
// the repair-vs-full-remap accounting.
type repairTrigger int

const (
	triggerNone     repairTrigger = iota
	triggerConflict               // a commit conflict invalidated the round's mapping
	triggerTemplate               // no pooled template placement fit the live platform
)

func (m *Manager) admit(app *model.Application, lib *model.Library, wait time.Duration) Outcome {
	prio := app.QoS.Priority.Clamp()
	out := Outcome{App: app.Name, Wait: wait, Priority: prio}
	// Claim the name for this in-flight admission; finishLocked releases
	// the pending entry.
	m.mu.Lock()
	_, running := m.running[app.Name]
	_, preempting := m.preempting[app.Name]
	_, pending := m.pending[app.Name]
	switch {
	case running || preempting:
		out.Err = fmt.Errorf("manager: application %q already running", app.Name)
	case pending:
		out.Err = fmt.Errorf("manager: application %q is already being admitted", app.Name)
	}
	if out.Err != nil {
		m.mu.Unlock()
		return out
	}
	m.pending[app.Name] = struct{}{}
	preemptOn := prio > model.BestEffort
	m.mu.Unlock()

	mapper := &core.Mapper{Lib: lib, Cfg: m.cfg}
	// tally holds the counters this admission books outside m.mu;
	// finishLocked folds it into Stats under the one lock it takes.
	var tally Stats

	// repairFrom is the stale mapping the next round refits instead of
	// mapping from scratch; trigger records what made it stale.
	var repairFrom *core.Result
	trigger := triggerNone
	snap := snapPool.Get().(*arch.Snapshot)
	defer snapPool.Put(snap)

	var fp string
	// Fast path: structurally identical application admitted before —
	// try committing its mapping directly. Validation against the live
	// platform makes a stale template harmless — it can be refused, not
	// applied wrongly.
	if f, err := Fingerprint(app, lib); err == nil {
		fp = f
		if pool, start := m.templates.get(fp); len(pool) > 0 {
			commitStart := time.Now()
			// Each failed validation already computed the template's
			// violation list; remember the template with the fewest
			// violations as the cheapest one to repair.
			leastConflicted := pool[start].res
			leastViolations := -1
			for k := 0; k < len(pool); k++ {
				tpl := pool[(start+k)%len(pool)]
				verr := m.transact(nil, change{tpl.plan, journal.EvAdmit, app.Name, prio})
				if verr == nil {
					out.Commit += time.Since(commitStart)
					m.mu.Lock()
					m.seq++
					ad := &Admission{App: app, Result: tpl.res, Seq: m.seq, Priority: prio, lib: lib, plan: tpl.plan}
					m.running[app.Name] = ad
					tally.TemplateHits++
					m.finishLocked(&out, &tally, ad, nil)
					m.mu.Unlock()
					return out
				}
				var conflict *core.ConflictError
				if errors.As(verr, &conflict) {
					if nv := len(conflict.Violations); leastViolations < 0 || nv < leastViolations {
						leastConflicted, leastViolations = tpl.res, nv
					}
				}
			}
			// No remembered placement fits the current residual
			// state. Instead of discarding the pool, repair a
			// template against a fresh snapshot: the placements that
			// still fit stay, only the conflicting processes are
			// re-placed.
			tally.StaleTemplates++
			m.snapshot(snap, &tally)
			out.Commit += time.Since(commitStart)
			trigger = triggerTemplate
			repairFrom = leastConflicted
		}
	}

	if trigger == triggerNone { // no stale template took one above
		m.snapshot(snap, &tally)
	}

	for {
		out.Attempts++
		var res *core.Result
		var mapErr error
		repaired := false
		if repairFrom != nil {
			repairStart := time.Now()
			rep, err := mapper.Repair(repairFrom, snap)
			out.Repair += time.Since(repairStart)
			repairFrom = nil
			if err == nil && rep.Feasible {
				res = rep
				repaired = true
			}
		}
		if res == nil {
			// Full four-step map: the first round of a normal admission,
			// or the fallback when repair refused or came back infeasible.
			if trigger != triggerNone {
				tally.FullRemaps++
			}
			mapStart := time.Now()
			res, mapErr = mapper.Map(app, snap.Plat)
			out.Map += time.Since(mapStart)
		}

		commitStart := time.Now()
		if repaired {
			// This retry/stale round was served by repair; no full remap
			// ran, whatever the commit below decides.
			switch trigger {
			case triggerConflict:
				tally.RepairedConflicts++
			case triggerTemplate:
				tally.RepairedTemplates++
			}
		}

		switch {
		case mapErr != nil:
			// Structural errors (unknown tiles, no implementations) do
			// not depend on residual state; no point retrying.
			out.Commit += time.Since(commitStart)
			m.mu.Lock()
			m.finishLocked(&out, &tally, nil, &RejectionError{App: app.Name, Reason: mapErr.Error()})
			m.mu.Unlock()
			return out
		case !res.Feasible:
			// Infeasible against the snapshot. If the platform changed
			// since — e.g. an application stopped and freed resources —
			// the verdict may be stale; retry on fresh state. The global
			// version counter is atomic, so the staleness probe needs no
			// lock.
			if m.plat.Version() != snap.Version && out.Attempts <= maxRetries {
				m.snapshot(snap, &tally)
				out.Commit += time.Since(commitStart)
				trigger = triggerNone
				continue
			}
			reason := "no feasible mapping with current occupancy"
			if n := len(res.Trace.Notes); n > 0 {
				reason = res.Trace.Notes[n-1]
			}
			out.Commit += time.Since(commitStart)
			// Full mesh, no retryable staleness: a priority arrival may
			// displace lower-priority admissions instead of giving up. The
			// mapper's infeasible verdict names no conflicted resource, so
			// every lower-priority victim is a candidate.
			if preemptOn && m.preemptAdmit(&out, &tally, app, lib, mapper, prio, nil) {
				return out
			}
			m.mu.Lock()
			m.finishLocked(&out, &tally, nil, &RejectionError{App: app.Name, Reason: reason, Retryable: true})
			m.mu.Unlock()
			return out
		default:
			// Aggregate the reservation plan without any lock, then
			// validate and commit it in one transaction.
			plan, perr := core.NewPlan(m.plat, res)
			if perr != nil {
				out.Commit += time.Since(commitStart)
				m.mu.Lock()
				m.finishLocked(&out, &tally, nil, &RejectionError{App: app.Name, Reason: perr.Error()})
				m.mu.Unlock()
				return out
			}
			err := m.transact(nil, change{plan, journal.EvAdmit, app.Name, prio})
			if err == nil {
				out.Commit += time.Since(commitStart)
				m.mu.Lock()
				m.seq++
				ad := &Admission{App: app, Result: res, Seq: m.seq, Priority: prio, lib: lib, plan: plan}
				m.running[app.Name] = ad
				out.Repaired = repaired
				m.finishLocked(&out, &tally, ad, nil)
				m.mu.Unlock()
				if fp != "" {
					m.templates.put(fp, res, plan)
				}
				return out
			}
			var conflict *core.ConflictError
			isConflict := errors.As(err, &conflict)
			retry := isConflict && out.Attempts <= maxRetries
			if isConflict {
				tally.Conflicts++
			}
			if retry {
				// A competing admission won the resources between
				// snapshot and commit: repair the mapping we just
				// computed against fresh state.
				tally.ConflictRetries++
				m.snapshot(snap, &tally)
				out.Commit += time.Since(commitStart)
				trigger = triggerConflict
				repairFrom = res
				continue
			}
			out.Commit += time.Since(commitStart)
			// Out of retries (or a non-retryable shortfall): before
			// rejecting, a priority arrival may preempt. The conflict's
			// violations scope victim selection to admissions holding the
			// very tiles and links this plan ran out of.
			if preemptOn && isConflict &&
				m.preemptAdmit(&out, &tally, app, lib, mapper, prio, conflict.Violations) {
				return out
			}
			m.mu.Lock()
			m.finishLocked(&out, &tally, nil, &RejectionError{App: app.Name, Reason: err.Error(), Retryable: true})
			m.mu.Unlock()
			return out
		}
	}
}

// finishLocked records the end of an admission attempt and folds the
// counters the admission tallied outside the lock into Stats. Callers
// hold m.mu.
func (m *Manager) finishLocked(out *Outcome, tally *Stats, ad *Admission, err error) {
	delete(m.pending, out.App)
	class := &tally.ByClass[out.Priority.Clamp()]
	if ad != nil {
		out.Admitted = true
		out.Admission = ad
		tally.Admitted++
		class.Admitted++
	} else {
		out.Err = err
		tally.Rejected++
		class.Rejected++
	}
	if out.Attempts > 0 {
		tally.Retries += uint64(out.Attempts - 1)
	}
	m.stats.Add(*tally)
}

// ErrRelocating reports a Stop that raced a preemption: the named
// application is claimed by the preemption planner (about to be displaced
// or mid-relocation) and cannot be stopped until it either returns to the
// running set or is evicted. Callers should retry shortly; errors.Is
// recognises it through the wrapping.
var ErrRelocating = errors.New("being relocated by the preemption planner")

// ErrNotRunning reports a Stop of an application never admitted, already
// stopped, or dropped by a fault or preemption; errors.Is recognises it.
var ErrNotRunning = errors.New("not running")

// Stop releases the named application's resources: the plan it committed,
// in one transaction.
func (m *Manager) Stop(name string) error {
	m.mu.Lock()
	if _, pend := m.pending[name]; pend {
		m.mu.Unlock()
		return fmt.Errorf("manager: application %q is still being admitted", name)
	}
	if _, rel := m.preempting[name]; rel {
		m.mu.Unlock()
		return fmt.Errorf("manager: application %q is %w", name, ErrRelocating)
	}
	ad, ok := m.running[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("manager: application %q is %w", name, ErrNotRunning)
	}
	delete(m.running, name)
	m.mu.Unlock()
	m.transact([]change{{ad.plan, journal.EvDepart, name, ad.Priority}}, change{})
	return nil
}

// Running lists admitted applications in admission order.
func (m *Manager) Running() []*Admission {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Admission, 0, len(m.running))
	for _, ad := range m.running {
		out = append(out, ad)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TotalEnergy sums the per-period energy of all running applications.
// Periods may differ between applications; the sum is meaningful as a
// power-proportional figure when periods are equal (as in the
// experiments) and otherwise serves as a coarse load indicator.
func (m *Manager) TotalEnergy() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var e float64
	for _, ad := range m.running {
		if ad.Result == nil {
			continue // replay-rebuilt resident: energy did not survive the crash
		}
		e += ad.Result.Energy.Total()
	}
	return e
}

// Load summarises platform occupancy: fraction of tiles powered, mean
// utilisation of powered tiles, the share of the mesh's processing
// capacity reserved, and fraction of total link capacity reserved.
type Load struct {
	TilesPowered int
	TilesTotal   int
	MeanUtil     float64
	// Utilization is the reserved utilisation summed over all processing
	// tiles, divided by their count: what the stream server's dead-letter
	// queue gates its retries on. A mesh without processing tiles reads
	// as fully loaded.
	Utilization  float64
	LinkReserved float64 // fraction of aggregate link capacity
}

// Load computes the current occupancy summary under the platform lock.
func (m *Manager) Load() Load {
	m.platMu.Lock()
	defer m.platMu.Unlock()
	var l Load
	var utilSum float64
	for _, t := range m.plat.Tiles {
		if t.Type == arch.TypeSource || t.Type == arch.TypeSink {
			continue
		}
		l.TilesTotal++
		if t.Occupants > 0 {
			l.TilesPowered++
			utilSum += t.ReservedUtil
		}
	}
	if l.TilesPowered > 0 {
		l.MeanUtil = utilSum / float64(l.TilesPowered)
	}
	l.Utilization = 1
	if l.TilesTotal > 0 {
		l.Utilization = utilSum / float64(l.TilesTotal)
	}
	var cap, res int64
	for _, link := range m.plat.Links {
		cap += link.CapBps
		res += link.ReservedBps
	}
	if cap > 0 {
		l.LinkReserved = float64(res) / float64(cap)
	}
	return l
}

// CheckInvariants verifies the platform's reservation ledger is sane: no
// tile or link over-committed, nothing negative. The stress tests call it
// while admissions are in flight.
func (m *Manager) CheckInvariants() error {
	m.platMu.Lock()
	defer m.platMu.Unlock()
	const eps = 1e-9
	for _, t := range m.plat.Tiles {
		if t.ReservedMem < 0 || t.ReservedMem > t.MemBytes {
			return fmt.Errorf("tile %q memory ledger out of range: %d of %d", t.Name, t.ReservedMem, t.MemBytes)
		}
		if t.ReservedUtil < -eps || t.ReservedUtil > 1+eps {
			return fmt.Errorf("tile %q utilisation out of range: %v", t.Name, t.ReservedUtil)
		}
		if t.Occupants < 0 || (t.MaxOccupants > 0 && int(t.Occupants) > t.MaxOccupants) {
			return fmt.Errorf("tile %q occupancy out of range: %d", t.Name, t.Occupants)
		}
		if t.NICapBps > 0 && (t.ReservedInBps < 0 || t.ReservedInBps > t.NICapBps ||
			t.ReservedOutBps < 0 || t.ReservedOutBps > t.NICapBps) {
			return fmt.Errorf("tile %q NI ledger out of range: in=%d out=%d cap=%d",
				t.Name, t.ReservedInBps, t.ReservedOutBps, t.NICapBps)
		}
	}
	for _, l := range m.plat.Links {
		if l.ReservedBps < 0 || l.ReservedBps > l.CapBps {
			return fmt.Errorf("link %d ledger out of range: %d of %d", l.ID, l.ReservedBps, l.CapBps)
		}
	}
	return nil
}
