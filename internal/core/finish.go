package core

import (
	"fmt"

	"rtsm/internal/arch"
	"rtsm/internal/model"
)

// PlacedProcess is one externally decided placement: which implementation
// serves a process and on which tile it runs.
type PlacedProcess struct {
	Process string
	Impl    *model.Implementation
	Tile    string
}

// FinishAssignment completes an externally produced process placement into
// a full, verified spatial mapping: it reserves tile resources, routes the
// channels (step 3) and verifies the QoS constraints (step 4), without any
// refinement. Baseline mappers and exact solvers use it so that their
// placements are judged by exactly the same routing and verification
// machinery as the paper's heuristic: the placement is installed as a
// seed that settles every process, and one attempt runs with step 2 off.
//
// The caller's platform is not mutated. An error is returned when the
// placement is not adherent (a tile cannot host its processes) or names
// unknown entities; QoS violations are reported via Result.Feasible, not
// as errors, with the feedback a refinement round would have acted on as
// the trace's last note.
func FinishAssignment(lib *model.Library, cfg Config, app *model.Application, plat *arch.Platform, placement []PlacedProcess) (*Result, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := checkPinned(app, plat); err != nil {
		return nil, err
	}
	seed, err := placementSeed(app, plat, placement)
	if err != nil {
		return nil, err
	}
	cfg.NoStep2 = true // the placement is final
	m := &Mapper{Lib: lib, Cfg: cfg}
	work := workPool.Get().(*arch.Platform)
	defer workPool.Put(work)
	res, fb, err := m.attempt(newAppIndex(app), plat, work, newTabu(), seed)
	if err != nil {
		return nil, err
	}
	if fb != nil {
		res.Trace.Notes = append(res.Trace.Notes, fb.String())
	}
	return res, nil
}

// placementSeed checks an external placement, in its own order, against
// the platform and returns it as a seed that settles every mappable
// process.
func placementSeed(app *model.Application, plat *arch.Platform, placement []PlacedProcess) (*seedMapping, error) {
	seed := newSeed(app)
	load := make(map[arch.TileID]arch.Tile) // the placement's tiles, with what it reserved so far
	for _, pl := range placement {
		p := app.ProcessByName(pl.Process)
		if p == nil {
			return nil, fmt.Errorf("core: placement names unknown process %q", pl.Process)
		}
		if p.PinnedTile != "" || p.Control {
			return nil, fmt.Errorf("core: process %q is not mappable", pl.Process)
		}
		t := plat.TileByName(pl.Tile)
		if t == nil {
			return nil, fmt.Errorf("core: placement names unknown tile %q", pl.Tile)
		}
		if pl.Impl == nil {
			return nil, fmt.Errorf("core: placement of %q has no implementation", pl.Process)
		}
		if pl.Impl.TileType != t.Type {
			return nil, fmt.Errorf("core: placement of %q is inadequate: %s on %s tile %q",
				pl.Process, pl.Impl, t.Type, t.Name)
		}
		cyc, err := pl.Impl.CyclesPerPeriod(app, p)
		if err != nil {
			return nil, err
		}
		lt, ok := load[t.ID]
		if !ok {
			lt = *t
		}
		util := utilisation(&lt, cyc, app.QoS.PeriodNs)
		if !canHost(&lt, pl.Impl.MemBytes, util) {
			return nil, fmt.Errorf("core: placement not adherent: tile %q cannot host %s", t.Name, pl.Impl)
		}
		lt.ReservedMem += pl.Impl.MemBytes
		lt.ReservedUtil += util
		lt.Occupants++
		load[t.ID] = lt
		seed.impl[p.ID], seed.tile[p.ID] = pl.Impl, t.ID
	}
	for _, p := range app.MappableProcesses() {
		if !seed.locks(p.ID) {
			return nil, fmt.Errorf("core: placement is missing process %q", p.Name)
		}
	}
	return seed, nil
}
