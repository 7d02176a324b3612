package core

import (
	"fmt"

	"rtsm/internal/arch"
	"rtsm/internal/model"
	"rtsm/internal/noc"
)

// This file is the incremental remapping engine. A mapping computed
// against a stale snapshot — a commit that lost an optimistic-concurrency
// race, or a remembered template instantiated on a loaded platform — is
// usually almost right: a competing admission consumed capacity on a few
// tiles or links, and every other decision still holds. The paper's step-4
// feedback loop already embodies the idea that a failed mapping should be
// refined rather than discarded (§3); Repair extends it across commits. It
// validates the stale result's plan against the fresh platform, pins every
// process and channel whose tile, NI bandwidth and route still fit, and
// re-enters steps 1–4 with only the conflicting processes unassigned.
// Repair failures degrade gracefully: feedback naming a pinned process
// releases it, so the repair converges toward a full remap as rounds pass,
// and the caller falls back to Map when nothing is salvageable at all.

// seedMapping carries the salvaged part of a stale mapping into an
// attempt: placements to install verbatim and routes to keep reserved.
// A nil seed seeds nothing (the full-map path).
type seedMapping struct {
	impl   map[model.ProcessID]*model.Implementation
	tile   map[model.ProcessID]arch.TileID
	routes map[model.ChannelID]noc.Path
}

// lockedSet returns the processes step 2 must not relocate.
func (s *seedMapping) lockedSet() map[model.ProcessID]bool {
	if s == nil {
		return nil
	}
	locked := make(map[model.ProcessID]bool, len(s.impl))
	for pid := range s.impl {
		locked[pid] = true
	}
	return locked
}

// unpin releases one process from the seed: its placement is forgotten and
// every kept route touching it is dropped, so the next attempt re-decides
// them. Reports whether anything was released.
func (s *seedMapping) unpin(ix *appIndex, pid model.ProcessID) bool {
	if s == nil {
		return false
	}
	if _, ok := s.impl[pid]; !ok {
		return false
	}
	delete(s.impl, pid)
	delete(s.tile, pid)
	for _, ci := range ix.incident[pid] {
		delete(s.routes, ix.chans[ci].ID)
	}
	return true
}

// install reserves the seed's placements and routes on the working
// platform and records them in the mapping, the repair counterpart of
// step 1's packing and step 3's lane reservation.
func (s *seedMapping) install(app *model.Application, work *arch.Platform, mp *Mapping) error {
	if s == nil {
		return nil
	}
	for pid, im := range s.impl {
		p := app.Process(pid)
		tid := s.tile[pid]
		t := work.Tile(tid)
		cyc, err := im.CyclesPerPeriod(app, p)
		if err != nil {
			return fmt.Errorf("core: seeded implementation of %q no longer matches: %w", p.Name, err)
		}
		t.ReservedMem += im.MemBytes
		t.ReservedUtil += utilisation(t, cyc, app.QoS.PeriodNs)
		t.Occupants++
		mp.Impl[pid] = im
		mp.Tile[pid] = tid
	}
	for cid, path := range s.routes {
		c := app.Channel(cid)
		src, okS := mp.Tile[c.Src]
		dst, okD := mp.Tile[c.Dst]
		if !okS || !okD {
			return fmt.Errorf("core: seeded route of %q has an unplaced endpoint", c.Name)
		}
		if path.Hops() > 0 {
			noc.Reserve(work, path, src, dst, channelBps(c, app.QoS.PeriodNs))
		}
		mp.Route[cid] = path
	}
	return nil
}

// tileBudget tracks the free capacity left on one conflicted tile while
// salvage greedily decides which of its occupants to keep.
type tileBudget struct {
	mem   int64
	util  float64
	slots int // -1 = unlimited
	inBps int64
	out   int64
}

func budgetFor(t *arch.Tile) *tileBudget {
	if t.Failed {
		// The ledger still shows free capacity, but a failed tile keeps
		// nothing: every occupant must be re-placed elsewhere.
		return &tileBudget{}
	}
	b := &tileBudget{
		mem:   t.FreeMem(),
		util:  1.0 - t.ReservedUtil,
		slots: -1,
	}
	if t.MaxOccupants > 0 {
		b.slots = t.MaxOccupants - int(t.Occupants)
	}
	if t.NICapBps > 0 {
		b.inBps = t.NICapBps - t.ReservedInBps
		b.out = t.NICapBps - t.ReservedOutBps
	}
	return b
}

// salvage decides what of a stale mapping survives the fresh platform
// state. Processes on unconflicted tiles are pinned wholesale — the
// per-tile validation already proved the tile absorbs everything the
// mapping puts there, stream buffers included. On a conflicted tile the
// occupants are kept greedily, in declaration order, while they fit the
// tile's fresh residual capacity; the rest are released for re-placement.
// Routes survive when both endpoints kept their tiles and no link of the
// path is conflicted; dropped routes with kept endpoints are re-routed by
// step 3 around the congestion.
func salvage(ix *appIndex, fresh *arch.Platform, res *Result, violations []ValidationError) (*seedMapping, error) {
	mp := res.Mapping
	app := ix.app
	badTile := make(map[arch.TileID]bool)
	badNI := make(map[arch.TileID]bool)
	badLink := make(map[arch.LinkID]bool)
	for _, v := range violations {
		switch v.Kind {
		case ResLink, ResLinkFailed:
			badLink[v.Link] = true
		case ResTileNI:
			badNI[v.Tile] = true
			badTile[v.Tile] = true
		default:
			badTile[v.Tile] = true
		}
	}
	// An exhausted network interface can only be relieved by moving this
	// application's processes off the tile. A tile hosting none of them —
	// a pinned source or sink — carries an irreducible NI demand:
	// re-placement cannot repair it, so hand the round to the full mapper
	// (whose step 3 rejects it promptly with the honest reason).
	for tid := range badNI {
		relievable := false
		for _, p := range ix.procs {
			if t, ok := mp.Tile[p.ID]; ok && t == tid {
				relievable = true
				break
			}
		}
		if !relievable {
			return nil, fmt.Errorf("core: network interface of pinned tile %q exhausted; not repairable by re-placement",
				fresh.Tile(tid).Name)
		}
	}
	seed := &seedMapping{
		impl:   make(map[model.ProcessID]*model.Implementation),
		tile:   make(map[model.ProcessID]arch.TileID),
		routes: make(map[model.ChannelID]noc.Path),
	}
	budgets := make(map[arch.TileID]*tileBudget)
	for _, p := range ix.procs {
		im := mp.Impl[p.ID]
		tid, ok := mp.Tile[p.ID]
		if im == nil || !ok {
			continue
		}
		if !badTile[tid] {
			seed.impl[p.ID] = im
			seed.tile[p.ID] = tid
			continue
		}
		t := fresh.Tile(tid)
		b := budgets[tid]
		if b == nil {
			b = budgetFor(t)
			budgets[tid] = b
		}
		cyc, err := im.CyclesPerPeriod(app, p)
		if err != nil {
			continue
		}
		util := utilisation(t, cyc, app.QoS.PeriodNs)
		// Budget the stale mapping's stream buffers for the process's
		// incoming channels alongside the implementation image: step 4
		// re-sizes and charges them to the consumer's tile, and a kept
		// placement that cannot afford its buffers would only bounce
		// back as buffer-overflow feedback a full attempt later. The
		// accounting mirrors planReservations (commit.go), the source of
		// truth for what Apply will eventually demand per resource.
		mem := im.MemBytes
		var inBps, outBps int64
		for _, ci := range ix.incident[p.ID] {
			c := ix.chans[ci]
			if c.Dst == p.ID {
				mem += mp.Buffers[c.ID] * c.TokenBytes
			}
			if t.NICapBps > 0 && mp.Tile[c.Src] != mp.Tile[c.Dst] {
				// Same-tile channels never touch the NI, matching the
				// hops-0 exemption in planReservations.
				bps := channelBps(c, app.QoS.PeriodNs)
				if c.Dst == p.ID {
					inBps += bps
				} else {
					outBps += bps
				}
			}
		}
		if mem > b.mem || b.util-util < -utilEps || b.slots == 0 ||
			(t.NICapBps > 0 && (inBps > b.inBps || outBps > b.out)) {
			continue // does not fit what is left: release for re-placement
		}
		b.mem -= mem
		b.util -= util
		if b.slots > 0 {
			b.slots--
		}
		b.inBps -= inBps
		b.out -= outBps
		seed.impl[p.ID] = im
		seed.tile[p.ID] = tid
	}
	for _, c := range ix.chans {
		path, ok := mp.Route[c.ID]
		if !ok {
			continue
		}
		if app.Process(c.Src).PinnedTile == "" && seed.impl[c.Src] == nil {
			continue
		}
		if app.Process(c.Dst).PinnedTile == "" && seed.impl[c.Dst] == nil {
			continue
		}
		// Routes terminating on an NI-exhausted tile are dropped even when
		// the endpoint is pinned there: step 3 re-routes them through its
		// NI check, so the shortfall surfaces as honest feedback instead
		// of an install that re-demands the exhausted bandwidth.
		if badNI[mp.Tile[c.Src]] || badNI[mp.Tile[c.Dst]] {
			continue
		}
		crossesBadLink := false
		for _, lid := range path.Links {
			if badLink[lid] {
				crossesBadLink = true
				break
			}
		}
		if crossesBadLink {
			continue
		}
		seed.routes[c.ID] = path
	}
	return seed, nil
}

// Repair refits a stale mapping result to a fresh platform snapshot. When
// the mapping's reservation plan has no violations on the snapshot — the
// platform did not change, or changed only where the mapping still fits —
// the result is returned as-is; otherwise the conflicting placements and
// routes are released and steps 1–4 re-run with everything else pinned.
// The returned result reports Repaired=true and the number of placements
// preserved in Pinned. A non-nil error — including when the
// whole mapping conflicts and nothing can be pinned — means the caller
// should fall back to a full Map; like Map, an unrepairable QoS violation
// surfaces as Feasible=false, not as an error.
func (m *Mapper) Repair(res *Result, snap *arch.Snapshot) (*Result, error) {
	if res == nil || res.Mapping == nil {
		return nil, fmt.Errorf("core: nothing to repair")
	}
	app := res.Mapping.App
	plan, err := NewPlan(snap.Plat, res)
	if err != nil {
		return nil, err
	}
	violations := plan.Violations(snap.Plat)
	if len(violations) == 0 {
		// Everything the mapping reserves still fits: it commits verbatim.
		return res, nil
	}
	ix := newAppIndex(app)
	if err := m.checkAdequacyPossible(ix, snap.Plat); err != nil {
		return nil, err
	}
	seed, err := salvage(ix, snap.Plat, res, violations)
	if err != nil {
		return nil, err
	}
	if len(seed.impl) == 0 && len(seed.routes) == 0 {
		return nil, fmt.Errorf("core: mapping of %q conflicts everywhere, nothing to salvage", app.Name)
	}

	work := workPool.Get().(*arch.Platform)
	defer workPool.Put(work)
	tabu := newTabu()
	var best, last *Result
	refinements := 0
	for round := 0; round <= m.Cfg.maxRepairRounds(); round++ {
		pinned := len(seed.impl)
		attempt, fb, err := m.attempt(ix, snap.Plat, work, tabu, seed)
		if err != nil {
			if best != nil {
				break
			}
			return nil, err
		}
		attempt.Refinements = refinements
		attempt.Repaired = true
		attempt.Pinned = pinned
		last = attempt
		if attempt.Feasible && (best == nil || attempt.Energy.Total() < best.Energy.Total()) {
			best = attempt
		}
		if fb == nil || m.Cfg.NoRefinement {
			break
		}
		// Graceful degradation: feedback naming a pinned process releases
		// it, so constraints the salvage missed still get repaired, and
		// with everything released a repair round is a full remap.
		released := seed.unpin(ix, fb.process)
		if !tabu.apply(fb) && !released {
			break // nothing new to try
		}
		refinements++
	}
	if best != nil {
		return best, nil
	}
	if last == nil {
		return nil, fmt.Errorf("core: no repair attempt completed for %q", app.Name)
	}
	return last, nil
}

// Relocate is the preemption planner's relocation entry point: it refits a
// preempted victim's mapping to the post-eviction snapshot — the platform
// after the victim's own reservations were released and the high-priority
// arrival committed — so the victim keeps running on whatever capacity is
// left instead of being killed. Unlike the admission path's use of Repair,
// Relocate never falls back to a full remap: a victim either moves cheaply
// (most placements kept, only the overlap with the new arrival re-placed)
// or is evicted by the caller. Both a repair error and an infeasible
// refit therefore surface as a non-nil error meaning "evict".
func (m *Mapper) Relocate(res *Result, snap *arch.Snapshot) (*Result, error) {
	rep, err := m.Repair(res, snap)
	if err != nil {
		return nil, err
	}
	if !rep.Feasible {
		return nil, fmt.Errorf("core: relocation of %q infeasible on the post-eviction residual",
			res.Mapping.App.Name)
	}
	return rep, nil
}
