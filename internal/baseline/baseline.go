// Package baseline implements the comparison mappers the experiments pit
// against the paper's heuristic: a vector bin-packing mapper with
// neighbour clustering in the spirit of Moreira, Mol and Bekooij
// (SAC 2007, the paper's [8]), a seeded random adequate mapper, and the
// design-time worst-case flow the paper's introduction argues against.
// All baselines produce their placements only; routing and QoS
// verification go through core.FinishAssignment so every contender is
// judged by identical machinery.
package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/model"
)

// BinPack maps the application in the style of the paper's reference [8]:
// neighbouring processes are first clustered greedily along the heaviest
// channels, then clusters are packed first-fit-decreasing by utilisation
// onto tiles. The method presumes interchangeable processors, so each
// process simply takes the first implementation that fits the candidate
// tile — heterogeneity-blind by design, which is exactly the behaviour
// the paper contrasts its desirability ordering against.
func BinPack(lib *model.Library, cfg core.Config, app *model.Application, plat *arch.Platform, maxClusterSize int) (*core.Result, error) {
	if maxClusterSize < 1 {
		maxClusterSize = 2
	}
	procs := app.MappableProcesses()
	clusterOf := make(map[model.ProcessID]int)
	clusters := make([][]*model.Process, 0, len(procs))
	for _, p := range procs {
		clusterOf[p.ID] = len(clusters)
		clusters = append(clusters, []*model.Process{p})
	}
	// Merge along channels in non-increasing traffic order while both
	// sides stay mappable to a single tile type.
	chans := append([]*model.Channel(nil), app.StreamChannels()...)
	sort.SliceStable(chans, func(i, j int) bool {
		return chans[i].BytesPerPeriod() > chans[j].BytesPerPeriod()
	})
	for _, c := range chans {
		ci, iok := clusterOf[c.Src]
		cj, jok := clusterOf[c.Dst]
		if !iok || !jok || ci == cj {
			continue
		}
		merged := len(clusters[ci]) + len(clusters[cj])
		if merged > maxClusterSize {
			continue
		}
		if commonType(lib, append(append([]*model.Process(nil), clusters[ci]...), clusters[cj]...)) == "" {
			continue
		}
		clusters[ci] = append(clusters[ci], clusters[cj]...)
		for _, p := range clusters[cj] {
			clusterOf[p.ID] = ci
		}
		clusters[cj] = nil
	}
	// First-fit-decreasing by total utilisation demand.
	type packJob struct {
		members []*model.Process
		demand  float64
	}
	var jobs []packJob
	for _, cl := range clusters {
		if len(cl) == 0 {
			continue
		}
		var demand float64
		for _, p := range cl {
			ims := lib.For(p.Name)
			if len(ims) == 0 {
				return nil, fmt.Errorf("baseline: process %q has no implementations", p.Name)
			}
			if cyc, err := ims[0].CyclesPerPeriod(app, p); err == nil {
				demand += float64(cyc)
			}
		}
		jobs = append(jobs, packJob{members: cl, demand: demand})
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].demand > jobs[j].demand })

	mem := make(map[arch.TileID]int64)
	util := make(map[arch.TileID]float64)
	occ := make(map[arch.TileID]int)
	var placement []core.PlacedProcess
	for qi := 0; qi < len(jobs); qi++ {
		job := jobs[qi]
		placed := false
		for _, t := range plat.Tiles {
			if t.Type == arch.TypeSource || t.Type == arch.TypeSink || t.ClockHz <= 0 {
				continue
			}
			ok := true
			var add []core.PlacedProcess
			dMem, dUtil := mem[t.ID], util[t.ID]
			dOcc := occ[t.ID]
			for _, p := range job.members {
				im := lib.ForType(p.Name, t.Type)
				if im == nil {
					ok = false
					break
				}
				cyc, err := im.CyclesPerPeriod(app, p)
				if err != nil {
					ok = false
					break
				}
				u := float64(cyc) / float64(t.CycleBudget(app.QoS.PeriodNs))
				if t.FreeMem()-dMem < im.MemBytes || t.ReservedUtil+dUtil+u > 1.0+1e-9 {
					ok = false
					break
				}
				if t.MaxOccupants > 0 && int(t.Occupants)+dOcc >= t.MaxOccupants {
					ok = false
					break
				}
				dMem += im.MemBytes
				dUtil += u
				dOcc++
				add = append(add, core.PlacedProcess{Process: p.Name, Impl: im, Tile: t.Name})
			}
			if ok {
				mem[t.ID] = dMem
				util[t.ID] = dUtil
				occ[t.ID] = dOcc
				placement = append(placement, add...)
				placed = true
				break
			}
		}
		if !placed {
			// A multi-process cluster that fits no tile (e.g. two kernels
			// on single-kernel Montiums) is split back into singletons,
			// the packer's standard fallback.
			if len(job.members) > 1 {
				for _, p := range job.members {
					jobs = append(jobs, packJob{members: []*model.Process{p}, demand: 0})
				}
				continue
			}
			return nil, fmt.Errorf("baseline: bin packing failed to place process %q", job.members[0].Name)
		}
	}
	return core.FinishAssignment(lib, cfg, app, plat, placement)
}

// commonType returns a tile type for which every listed process has an
// implementation, or "".
func commonType(lib *model.Library, procs []*model.Process) arch.TileType {
	if len(procs) == 0 {
		return ""
	}
	for _, im := range lib.For(procs[0].Name) {
		ok := true
		for _, p := range procs[1:] {
			if lib.ForType(p.Name, im.TileType) == nil {
				ok = false
				break
			}
		}
		if ok {
			return im.TileType
		}
	}
	return ""
}

// Random produces a seeded random adequate placement: every process draws
// a uniformly random implementation and a uniformly random tile of that
// type with room. Restarts draws until a fit is found or attempts run
// out. It is the sanity floor every informed mapper must beat.
func Random(lib *model.Library, cfg core.Config, app *model.Application, plat *arch.Platform, seed int64) (*core.Result, error) {
	rng := rand.New(rand.NewSource(seed))
	const attempts = 64
	var lastErr error
	for a := 0; a < attempts; a++ {
		placement, err := randomPlacement(lib, app, plat, rng)
		if err != nil {
			lastErr = err
			continue
		}
		res, err := core.FinishAssignment(lib, cfg, app, plat, placement)
		if err != nil {
			lastErr = err
			continue
		}
		return res, nil
	}
	return nil, fmt.Errorf("baseline: random mapper found no adherent placement in %d attempts: %w", attempts, lastErr)
}

func randomPlacement(lib *model.Library, app *model.Application, plat *arch.Platform, rng *rand.Rand) ([]core.PlacedProcess, error) {
	mem := make(map[arch.TileID]int64)
	util := make(map[arch.TileID]float64)
	occ := make(map[arch.TileID]int)
	var placement []core.PlacedProcess
	for _, p := range app.MappableProcesses() {
		ims := lib.For(p.Name)
		if len(ims) == 0 {
			return nil, fmt.Errorf("baseline: process %q has no implementations", p.Name)
		}
		im := ims[rng.Intn(len(ims))]
		tiles := plat.TilesOfType(im.TileType)
		if len(tiles) == 0 {
			return nil, fmt.Errorf("baseline: no %s tile for %q", im.TileType, p.Name)
		}
		cyc, err := im.CyclesPerPeriod(app, p)
		if err != nil {
			return nil, err
		}
		// One random probe plus a linear fallback keeps the distribution
		// random but the failure rate low.
		order := rng.Perm(len(tiles))
		var chosen *arch.Tile
		for _, idx := range order {
			t := plat.Tile(tiles[idx])
			u := float64(cyc) / float64(t.CycleBudget(app.QoS.PeriodNs))
			if t.FreeMem()-mem[t.ID] < im.MemBytes || t.ReservedUtil+util[t.ID]+u > 1.0+1e-9 {
				continue
			}
			if t.MaxOccupants > 0 && int(t.Occupants)+occ[t.ID] >= t.MaxOccupants {
				continue
			}
			chosen = t
			mem[t.ID] += im.MemBytes
			util[t.ID] += u
			occ[t.ID]++
			break
		}
		if chosen == nil {
			return nil, fmt.Errorf("baseline: no room for %q", p.Name)
		}
		placement = append(placement, core.PlacedProcess{Process: p.Name, Impl: im, Tile: chosen.Name})
	}
	return placement, nil
}

// DesignTime models the flow the paper's introduction argues against: the
// mapping is fixed at design time against the worst-case application
// (e.g. the most demanding HIPERLAN/2 mode) on the platform as the
// designer assumed it (designPlat, typically empty), and reused unchanged
// at run time on the platform as it actually is (runPlat, possibly partly
// occupied by other applications). The returned result is the frozen
// placement re-verified and re-priced against the actual application; an
// error is returned when the frozen placement collides with the run-time
// state — the inflexibility the paper's run-time approach removes.
func DesignTime(worstLib, actualLib *model.Library, cfg core.Config, worstCase, actual *model.Application, designPlat, runPlat *arch.Platform) (*core.Result, error) {
	m := &core.Mapper{Lib: worstLib, Cfg: cfg}
	worst, err := m.Map(worstCase, designPlat)
	if err != nil {
		return nil, fmt.Errorf("baseline: design-time mapping failed: %w", err)
	}
	if !worst.Feasible {
		return nil, fmt.Errorf("baseline: design-time mapping infeasible for worst case %q", worstCase.Name)
	}
	var placement []core.PlacedProcess
	for _, p := range worstCase.MappableProcesses() {
		actualProc := actual.ProcessByName(p.Name)
		if actualProc == nil {
			return nil, fmt.Errorf("baseline: worst-case process %q missing from actual application", p.Name)
		}
		im := worst.Mapping.Impl[p.ID]
		// The implementation library differs per mode (rates depend on
		// b); the frozen decisions are the tile type and the tile.
		actualIm := actualLib.ForType(p.Name, im.TileType)
		if actualIm == nil {
			return nil, fmt.Errorf("baseline: no %s implementation of %q in the actual library", im.TileType, p.Name)
		}
		placement = append(placement, core.PlacedProcess{
			Process: p.Name,
			Impl:    actualIm,
			Tile:    designPlat.Tile(worst.Mapping.Tile[p.ID]).Name,
		})
	}
	return core.FinishAssignment(actualLib, cfg, actual, runPlat, placement)
}
