package core

import (
	"fmt"
	"math"
	"slices"

	"rtsm/internal/arch"
	"rtsm/internal/model"
)

// option is one viable (implementation, first-fit tile) pair for a process
// during step 1.
type option struct {
	im   *model.Implementation
	tile *arch.Tile
	util float64
	cost float64
}

// pending is a process step 1 has yet to assign, with its options sorted
// by cost as of the last time they were scored; none means stale.
type pending struct {
	p    *model.Process
	opts []option
}

// step1 assigns an implementation — and thereby a tile type — to every
// mappable process (paper §3, step 1). Processes are picked iteratively by
// desirability: the cost gap between their cheapest and second cheapest
// viable option. A process whose last alternative disappeared is forced
// (desirability +Inf), matching the paper's "chosen per default". The
// chosen implementation is packed first-fit onto a concrete tile so that
// an adhering assignment is known to exist after this step.
func (m *Mapper) step1(ix *appIndex, work *arch.Platform, mp *Mapping, tb *tabu, tr *Trace) *feedback {
	// Processes already carrying an implementation were seeded by the
	// repair path; their placement is settled and step 1 leaves it alone.
	// The others keep their options between picks, at most one per
	// implementation.
	var todo []pending
	for _, p := range ix.procs {
		if mp.Impl[p.ID] == nil {
			todo = append(todo, pending{p, make([]option, 0, len(m.Lib.For(p.Name)))})
		}
	}

	for len(todo) > 0 {
		pick, pickDesirability := -1, 0.0
		for i := range todo {
			u := &todo[i]
			if len(u.opts) == 0 {
				var fb *feedback
				if u.opts, fb = m.viableOptions(ix, work, mp, u.p, tb, u.opts); fb != nil {
					return fb
				}
			}
			desirability := math.Inf(1)
			if len(u.opts) > 1 {
				desirability = u.opts[1].cost - u.opts[0].cost
			}
			if m.Cfg.ArbitraryOrder {
				// Ablation: take processes in declaration order, ignoring
				// desirability entirely.
				pick, pickDesirability = i, desirability
				break
			}
			if pick < 0 || desirability > pickDesirability {
				pick, pickDesirability = i, desirability
			}
		}
		p := todo[pick].p
		opt := todo[pick].opts[0]
		wt := work.Tile(opt.tile.ID)
		wt.ReservedMem += opt.im.MemBytes
		wt.ReservedUtil += opt.util
		wt.Occupants++
		mp.Impl[p.ID] = opt.im
		mp.Tile[p.ID] = opt.tile.ID
		tr.Step1 = append(tr.Step1, Step1Record{
			Process:      p.Name,
			Desirability: pickDesirability,
			Impl:         opt.im.String(),
			Tile:         opt.tile.Name,
		})
		todo = append(todo[:pick], todo[pick+1:]...)
		// Reservations only grow during step 1 and the tabu is fixed, so
		// a first fit ahead of the picked tile still fits and one behind
		// it still does not: only options on the picked tile are stale.
		for i := range todo {
			if slices.ContainsFunc(todo[i].opts, func(o option) bool { return o.tile == opt.tile }) {
				todo[i].opts = todo[i].opts[:0]
			}
		}
	}
	return nil
}

// viableOptions appends to opts the process's options sorted by cost
// (cheapest first; ties by library registration order). Options are
// filtered the way the paper prescribes: only implementations that
// currently fit on at least one tile keep the eventual mapping adherent.
func (m *Mapper) viableOptions(ix *appIndex, work *arch.Platform, mp *Mapping, p *model.Process, tb *tabu, opts []option) ([]option, *feedback) {
	app := ix.app
	for _, im := range m.Lib.For(p.Name) {
		if tb.bansImpl(p.ID, im.TileType) {
			continue
		}
		cyc, err := im.CyclesPerPeriod(app, p)
		if err != nil {
			// The implementation does not match the application's channel
			// structure; it is not an option for this app.
			continue
		}
		tile, util := m.firstFit(ix, work, p, im, cyc, tb)
		if tile == nil {
			continue
		}
		opts = append(opts, option{im: im, tile: tile, util: util, cost: im.EnergyPerPeriod})
	}
	if len(opts) == 0 {
		return nil, m.step1Feedback(ix, work, mp, p, tb)
	}
	// Insertion sort by cost keeps registration order on ties and avoids
	// pulling in sort for a handful of options.
	for i := 1; i < len(opts); i++ {
		for j := i; j > 0 && opts[j].cost < opts[j-1].cost; j-- {
			opts[j], opts[j-1] = opts[j-1], opts[j]
		}
	}
	return opts, nil
}

// step1Feedback is produced when a process runs out of options mid-step-1.
// The paper lists feedback from the earlier steps as future work ("When
// earlier steps fail to find a solution, feedback information should be
// produced with which a new attempt can be made", §5); this implements it:
// find a tile type the starved process could use, pick an already-assigned
// occupant of that type that has an alternative tile type, and ban the
// occupant's choice so the next attempt frees a slot.
func (m *Mapper) step1Feedback(ix *appIndex, work *arch.Platform, mp *Mapping, p *model.Process, tb *tabu) *feedback {
	for _, im := range m.Lib.For(p.Name) {
		if tb.bansImpl(p.ID, im.TileType) {
			continue
		}
		for _, q := range ix.procs {
			qIm := mp.Impl[q.ID]
			if qIm == nil || qIm.TileType != im.TileType || tb.bansImpl(q.ID, qIm.TileType) {
				continue
			}
			// The displaced process needs somewhere else to go.
			hasAlternative := false
			for _, alt := range m.Lib.For(q.Name) {
				if alt.TileType != qIm.TileType && !tb.bansImpl(q.ID, alt.TileType) &&
					len(work.TilesOfType(alt.TileType)) > 0 {
					hasAlternative = true
					break
				}
			}
			if !hasAlternative {
				continue
			}
			return &feedback{
				kind:        fbNoImplementation,
				process:     q.ID,
				banImplType: qIm.TileType,
				detail: fmt.Sprintf("process %q starved of %s tiles; displacing %q",
					p.Name, im.TileType, q.Name),
			}
		}
	}
	return &feedback{
		kind:    fbNoImplementation,
		process: p.ID,
		detail:  fmt.Sprintf("process %q has no viable implementation left", p.Name),
	}
}

// firstFit returns the first tile (in platform declaration order: "the
// first tile we come across", §3 step 1) that can host the implementation,
// or nil.
func (m *Mapper) firstFit(ix *appIndex, work *arch.Platform, p *model.Process, im *model.Implementation, cyclesPerPeriod int64, tb *tabu) (*arch.Tile, float64) {
	ni := ix.ni[p.ID]
	for _, tid := range work.TilesOfType(im.TileType) {
		if tb.bansTile(p.ID, tid) {
			continue
		}
		t := work.Tile(tid)
		util := utilisation(t, cyclesPerPeriod, ix.app.QoS.PeriodNs)
		if canHost(t, im.MemBytes, util) && ni.fits(t) {
			return t, util
		}
	}
	return nil, 0
}

func canHost(t *arch.Tile, memBytes int64, util float64) bool {
	if t.Failed {
		return false
	}
	if t.MaxOccupants > 0 && int(t.Occupants) >= t.MaxOccupants {
		return false
	}
	return t.FreeMem() >= memBytes && t.ReservedUtil+util <= 1.0+utilEps
}

// niDemand is the throughput all of a process's stream channels together
// ask of its tile's network interface. It does not depend on the tile, so
// the application index holds it once per process.
type niDemand struct{ inBps, outBps int64 }

// fits conservatively checks that the tile's network interface could
// carry all of the process's stream traffic, the "at least, locally"
// communication-resource check of step 2's tile filter. Channels whose
// peer ends up on the same tile will not actually use the NI, so this
// filter is conservative, never optimistic.
func (d niDemand) fits(t *arch.Tile) bool {
	if t.NICapBps <= 0 {
		return true // NI unconstrained
	}
	return t.ReservedInBps+d.inBps <= t.NICapBps && t.ReservedOutBps+d.outBps <= t.NICapBps
}
