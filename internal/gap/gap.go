// Package gap provides an exact reference solver for the spatial
// assignment problem. The paper (§3) observes that assigning processes to
// a heterogeneous multi-tile platform "even when only considering the
// assignment of processes" is a Generalized Assignment Problem
// (Martello & Toth 1990), which is NP-complete — hence the paper's
// heuristic. On small instances, however, branch-and-bound enumeration is
// affordable and yields the true optimum, giving the experiments a yard-
// stick for heuristic quality (experiment E8).
//
// The objective matches the mapper's energy model exactly: processing
// energy of the chosen implementations, communication energy priced at
// Manhattan distance (the routing-free estimate both sides share), and
// idle energy of powered tiles. Constraints are the platform's: tile
// memory, processing utilisation, and occupancy limits.
package gap

import (
	"fmt"
	"math"

	"rtsm/internal/arch"
	"rtsm/internal/energy"
	"rtsm/internal/model"
)

// Assignment is an exact solver solution.
type Assignment struct {
	Impl map[model.ProcessID]*model.Implementation
	Tile map[model.ProcessID]arch.TileID
	// Energy is the objective value: total estimated energy per period.
	Energy float64
	// Nodes is the number of search nodes expanded.
	Nodes int64
}

// Solver holds the search configuration.
type Solver struct {
	Lib    *model.Library
	Params energy.Params
	// MaxNodes aborts the search when exceeded (0 = 20 million), keeping
	// accidental large instances from hanging the experiments.
	MaxNodes int64
}

// ErrTooLarge reports that the search exceeded its node budget.
var ErrTooLarge = fmt.Errorf("gap: instance exceeds the exact solver's node budget")

type searchCtx struct {
	s     *Solver
	app   *model.Application
	plat  *arch.Platform
	procs []*model.Process
	// pinned tiles participate in communication cost.
	tile map[model.ProcessID]arch.TileID
	impl map[model.ProcessID]*model.Implementation
	// residual capacities, indexed by tile ID
	mem  []int64
	util []float64
	occ  []int
	// minProc[i] is the cheapest processing energy of procs[i:] — the
	// admissible remainder bound.
	minProc []float64
	best    *Assignment
	nodes   int64
	budget  int64
}

// Optimal exhaustively finds the minimum-energy adequate and adherent
// assignment. It returns ErrTooLarge when the node budget is exceeded and
// an error when no adherent assignment exists.
func (s *Solver) Optimal(app *model.Application, plat *arch.Platform) (*Assignment, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	ctx := &searchCtx{
		s:      s,
		app:    app,
		plat:   plat,
		procs:  app.MappableProcesses(),
		tile:   make(map[model.ProcessID]arch.TileID),
		impl:   make(map[model.ProcessID]*model.Implementation),
		mem:    make([]int64, len(plat.Tiles)),
		util:   make([]float64, len(plat.Tiles)),
		occ:    make([]int, len(plat.Tiles)),
		budget: s.MaxNodes,
	}
	if ctx.budget == 0 {
		ctx.budget = 20_000_000
	}
	for i, t := range plat.Tiles {
		ctx.mem[i] = t.FreeMem()
		ctx.util[i] = t.ReservedUtil
		ctx.occ[i] = int(t.Occupants)
	}
	for _, p := range app.Processes {
		if p.PinnedTile != "" && !p.Control {
			t := plat.TileByName(p.PinnedTile)
			if t == nil {
				return nil, fmt.Errorf("gap: unknown pinned tile %q", p.PinnedTile)
			}
			ctx.tile[p.ID] = t.ID
		}
	}
	ctx.minProc = make([]float64, len(ctx.procs)+1)
	for i := len(ctx.procs) - 1; i >= 0; i-- {
		cheapest := math.Inf(1)
		for _, im := range s.Lib.For(ctx.procs[i].Name) {
			if im.EnergyPerPeriod < cheapest {
				cheapest = im.EnergyPerPeriod
			}
		}
		if math.IsInf(cheapest, 1) {
			return nil, fmt.Errorf("gap: process %q has no implementations", ctx.procs[i].Name)
		}
		ctx.minProc[i] = ctx.minProc[i+1] + cheapest
	}
	if err := ctx.dfs(0, 0); err != nil {
		return nil, err
	}
	if ctx.best == nil {
		return nil, fmt.Errorf("gap: no adherent assignment exists for %q on %q", app.Name, plat.Name)
	}
	ctx.best.Nodes = ctx.nodes
	return ctx.best, nil
}

// commDelta prices the communication energy process p adds when placed on
// tile tid: channels to peers whose tiles are already decided, at
// Manhattan distance. Undecided peers contribute when their own turn
// comes, so every channel is counted exactly once. Idle energy is added
// only at leaves; the bound stays admissible because communication and
// idle energies are non-negative.
func (c *searchCtx) commDelta(p *model.Process, tid arch.TileID) float64 {
	var e float64
	for _, ch := range c.app.ChannelsOf(p.ID) {
		peer := ch.Src
		if peer == p.ID {
			peer = ch.Dst
		}
		peerTile, ok := c.tile[peer]
		if !ok {
			continue
		}
		hops := c.plat.Pos(tid).Manhattan(c.plat.Pos(peerTile))
		e += c.s.Params.CommEnergy(ch, hops)
	}
	return e
}

func (c *searchCtx) idleTotal() float64 {
	powered := make(map[arch.TileID]bool)
	for _, p := range c.procs {
		powered[c.tile[p.ID]] = true
	}
	var e float64
	for tid := range powered {
		e += c.s.Params.IdleEnergy(c.plat.Tile(tid))
	}
	return e
}

func (c *searchCtx) dfs(i int, cost float64) error {
	c.nodes++
	if c.nodes > c.budget {
		return ErrTooLarge
	}
	if i == len(c.procs) {
		total := cost + c.idleTotal()
		if c.best == nil || total < c.best.Energy {
			impl := make(map[model.ProcessID]*model.Implementation, len(c.impl))
			tile := make(map[model.ProcessID]arch.TileID, len(c.tile))
			for k, v := range c.impl {
				impl[k] = v
			}
			for k, v := range c.tile {
				tile[k] = v
			}
			c.best = &Assignment{Impl: impl, Tile: tile, Energy: total}
		}
		return nil
	}
	// Admissible bound: decided cost plus the cheapest possible
	// processing energy of the undecided suffix (communication and idle
	// are non-negative).
	if c.best != nil && cost+c.minProc[i] >= c.best.Energy {
		return nil
	}
	p := c.procs[i]
	for _, im := range c.s.Lib.For(p.Name) {
		cyc, err := im.CyclesPerPeriod(c.app, p)
		if err != nil {
			continue
		}
		for _, tid := range c.plat.TilesOfType(im.TileType) {
			t := c.plat.Tile(tid)
			if t.MaxOccupants > 0 && c.occ[t.ID] >= t.MaxOccupants {
				continue
			}
			if c.mem[t.ID] < im.MemBytes {
				continue
			}
			util := float64(cyc) / float64(t.CycleBudget(c.app.QoS.PeriodNs))
			if c.util[t.ID]+util > 1.0+1e-9 {
				continue
			}
			delta := im.EnergyPerPeriod + c.commDelta(p, t.ID)
			c.tile[p.ID] = t.ID
			c.impl[p.ID] = im
			c.mem[t.ID] -= im.MemBytes
			c.util[t.ID] += util
			c.occ[t.ID]++
			if err := c.dfs(i+1, cost+delta); err != nil {
				return err
			}
			c.occ[t.ID]--
			c.util[t.ID] -= util
			c.mem[t.ID] += im.MemBytes
			delete(c.tile, p.ID)
			delete(c.impl, p.ID)
		}
	}
	return nil
}

// Evaluate prices an arbitrary assignment with the solver's objective
// (Manhattan-estimated communication), so heuristic and exact solutions
// are compared on identical terms.
func (s *Solver) Evaluate(app *model.Application, plat *arch.Platform, impl map[model.ProcessID]*model.Implementation, tile map[model.ProcessID]arch.TileID) float64 {
	asg := energy.Assignment{Impl: impl, Tile: tile}
	return s.Params.Evaluate(app, plat, asg).Total()
}
