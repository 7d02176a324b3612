package core

import (
	"fmt"
	"slices"

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
// re-enters the refinement loop with only the conflicting processes
// unassigned. Repair failures degrade gracefully: feedback naming a pinned
// process releases it, so the repair converges toward a full remap as
// rounds pass, and the caller falls back to Map when nothing is
// salvageable at all.

// seedMapping carries decisions into an attempt that it must not revisit:
// placements installed verbatim and locked against steps 1 and 2, and
// routes kept reserved and skipped by step 3. Repair seeds what it
// salvaged of a stale mapping, FinishAssignment a whole external
// placement. A nil seed seeds nothing (the full-map path).
type seedMapping struct {
	impl  []*model.Implementation // by ProcessID; nil leaves the process open
	tile  []arch.TileID           // by ProcessID, where impl is set
	route []noc.Path              // by ChannelID, where kept is set
	kept  []bool                  // by ChannelID
}

func newSeed(app *model.Application) *seedMapping {
	return &seedMapping{
		impl:  make([]*model.Implementation, len(app.Processes)),
		tile:  make([]arch.TileID, len(app.Processes)),
		route: make([]noc.Path, len(app.Channels)),
		kept:  make([]bool, len(app.Channels)),
	}
}

// locks reports whether the seed settles process pid's placement.
func (s *seedMapping) locks(pid model.ProcessID) bool {
	return s != nil && s.impl[pid] != nil
}

// pinned counts the placements the seed settles.
func (s *seedMapping) pinned() int {
	n := 0
	if s != nil {
		for _, im := range s.impl {
			if im != nil {
				n++
			}
		}
	}
	return n
}

// unpin releases one process from the seed: its placement is forgotten and
// every kept route touching it is dropped, so the next attempt re-decides
// them. Reports whether anything was released.
func (s *seedMapping) unpin(ix *appIndex, pid model.ProcessID) bool {
	if !s.locks(pid) {
		return false
	}
	s.impl[pid] = nil
	for _, ci := range ix.incident[pid] {
		s.kept[ix.chans[ci].ID] = false
	}
	return true
}

// install reserves the seed's placements and routes on the working
// platform, in ID order, and records them in the mapping: the seeded
// counterpart of step 1's packing and step 3's lane reservation.
func (s *seedMapping) install(app *model.Application, work *arch.Platform, mp *Mapping) error {
	if s == nil {
		return nil
	}
	for pid, im := range s.impl {
		if im == nil {
			continue
		}
		p := app.Processes[pid]
		t := work.Tile(s.tile[pid])
		cyc, err := im.CyclesPerPeriod(app, p)
		if err != nil {
			return fmt.Errorf("core: seeded implementation of %q no longer matches: %w", p.Name, err)
		}
		t.ReservedMem += im.MemBytes
		t.ReservedUtil += utilisation(t, cyc, app.QoS.PeriodNs)
		t.Occupants++
		mp.Impl[p.ID] = im
		mp.Tile[p.ID] = t.ID
	}
	for cid, path := range s.route {
		if !s.kept[cid] {
			continue
		}
		c := app.Channels[cid]
		src, okS := mp.Tile[c.Src]
		dst, okD := mp.Tile[c.Dst]
		if !okS || !okD {
			return fmt.Errorf("core: seeded route of %q has an unplaced endpoint", c.Name)
		}
		if path.Hops() > 0 {
			noc.Reserve(work, path, src, dst, channelBps(c, app.QoS.PeriodNs))
		}
		mp.Route[c.ID] = path
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
	seed := newSeed(app)
	budgets := make(map[arch.TileID]*tileBudget)
	for _, p := range ix.procs {
		im := mp.Impl[p.ID]
		tid, ok := mp.Tile[p.ID]
		if im == nil || !ok {
			continue
		}
		if !badTile[tid] {
			seed.impl[p.ID], seed.tile[p.ID] = im, tid
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
		// accounting mirrors NewPlan (commit.go), the source of
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
				// hops-0 exemption in NewPlan.
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
		seed.impl[p.ID], seed.tile[p.ID] = im, tid
	}
	for _, c := range ix.chans {
		path, ok := mp.Route[c.ID]
		if !ok {
			continue
		}
		if !isPinned(app, c.Src) && !seed.locks(c.Src) || !isPinned(app, c.Dst) && !seed.locks(c.Dst) {
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
		seed.route[c.ID], seed.kept[c.ID] = path, true
	}
	return seed, nil
}

// Repair refits a stale mapping result to a fresh platform snapshot. When
// the mapping's reservation plan has no violations on the snapshot — the
// platform did not change, or changed only where the mapping still fits —
// the result is returned as-is; otherwise the conflicting placements and
// routes are released and the refinement loop re-runs steps 1–4 with
// everything else pinned. Feedback naming a pinned process releases it,
// so constraints the salvage missed still get repaired, and with
// everything released a repair round is a full remap.
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
	if seed.pinned() == 0 && !slices.Contains(seed.kept, true) {
		return nil, fmt.Errorf("core: mapping of %q conflicts everywhere, nothing to salvage", app.Name)
	}
	work := workPool.Get().(*arch.Platform)
	defer workPool.Put(work)
	return m.refine(ix, snap.Plat, work, seed, maxRepairRounds)
}
