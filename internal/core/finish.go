package core

import (
	"fmt"

	"rtsm/internal/arch"
	"rtsm/internal/model"
	"rtsm/internal/noc"
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
// machinery as the paper's heuristic.
//
// The caller's platform is not mutated. An error is returned when the
// placement is not adherent (a tile cannot host its processes) or names
// unknown entities; QoS violations are reported via Result.Feasible, not
// as errors.
func FinishAssignment(lib *model.Library, cfg Config, app *model.Application, plat *arch.Platform, placement []PlacedProcess) (*Result, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	m := &Mapper{Lib: lib, Cfg: cfg}
	work := workPool.Get().(*arch.Platform)
	defer workPool.Put(work)
	plat.CopyInto(work)
	trace := &Trace{}
	mp := &Mapping{
		App:     app,
		Impl:    make(map[model.ProcessID]*model.Implementation),
		Tile:    make(map[model.ProcessID]arch.TileID),
		Route:   make(map[model.ChannelID]noc.Path),
		Buffers: make(map[model.ChannelID]int64),
	}
	for _, p := range app.Processes {
		if p.Control {
			continue
		}
		if p.PinnedTile != "" {
			t := work.TileByName(p.PinnedTile)
			if t == nil {
				return nil, fmt.Errorf("core: process %q pinned to unknown tile %q", p.Name, p.PinnedTile)
			}
			mp.Tile[p.ID] = t.ID
			mp.Impl[p.ID] = nil
		}
	}
	placed := make(map[string]bool, len(placement))
	for _, pl := range placement {
		p := app.ProcessByName(pl.Process)
		if p == nil {
			return nil, fmt.Errorf("core: placement names unknown process %q", pl.Process)
		}
		if p.PinnedTile != "" || p.Control {
			return nil, fmt.Errorf("core: process %q is not mappable", pl.Process)
		}
		t := work.TileByName(pl.Tile)
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
		util := utilisation(t, cyc, app.QoS.PeriodNs)
		if !canHost(t, pl.Impl.MemBytes, util) {
			return nil, fmt.Errorf("core: placement not adherent: tile %q cannot host %s", t.Name, pl.Impl)
		}
		wt := work.Tile(t.ID)
		wt.ReservedMem += pl.Impl.MemBytes
		wt.ReservedUtil += util
		wt.Occupants++
		mp.Impl[p.ID] = pl.Impl
		mp.Tile[p.ID] = t.ID
		placed[pl.Process] = true
	}
	ix := newAppIndex(app)
	for _, p := range ix.procs {
		if !placed[p.Name] {
			return nil, fmt.Errorf("core: placement is missing process %q", p.Name)
		}
	}
	if fb := m.step3(ix, work, mp, trace); fb != nil {
		res := m.infeasibleResult(app, work, mp, trace)
		trace.Notes = append(trace.Notes, fb.String())
		return res, nil
	}
	res, _ := m.step4(ix, work, mp, trace)
	return res, nil
}
