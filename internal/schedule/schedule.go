// Package schedule derives per-tile static-order (temporal) schedules for
// a spatial mapping. The paper deliberately separates spatial from
// temporal mapping ("By separating the spatial and temporal mappings, we
// have achieved promising results", §2, citing L. Smit et al., SoC 2005);
// this package is the temporal half: given the spatial mapper's output,
// it fixes the firing order of the actors sharing each tile and verifies
// that the ordered system still meets the throughput constraint.
//
// The generated schedules are single-appearance schedules (SAS): each
// tile fires its actors in stream topological order, each actor
// completing all of its per-iteration firings before the next actor
// starts. SAS minimises context switches (one reconfiguration per actor
// per iteration — attractive for coarse-grain reconfigurable tiles) at
// the price of larger buffers; the verification re-sizes buffers under
// the enforced order, so the verdict accounts for that.
package schedule

import (
	"fmt"
	"strings"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
)

// Entry is one actor's slot in a tile's static order.
type Entry struct {
	Actor   string
	Firings int64 // consecutive firings per graph iteration
}

// TileSchedule is the firing order of one tile that hosts two or more
// actors. Tiles with a single actor need no schedule.
type TileSchedule struct {
	Tile    string
	Entries []Entry
}

func (ts TileSchedule) String() string {
	parts := make([]string, len(ts.Entries))
	for i, e := range ts.Entries {
		parts[i] = fmt.Sprintf("%s×%d", e.Actor, e.Firings)
	}
	return fmt.Sprintf("%s: [%s]", ts.Tile, strings.Join(parts, " "))
}

// Schedule is the complete temporal mapping of one application.
type Schedule struct {
	Tiles []TileSchedule
	// PeriodNs is the steady-state period measured with the orders
	// enforced and buffers re-sized accordingly.
	PeriodNs float64
	// Buffers are the stream buffer capacities required under the static
	// order; SAS usually needs more than the unordered analysis.
	Buffers map[model.ChannelID]int64
	// Feasible reports whether the ordered system meets the period.
	Feasible bool
}

func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static-order schedule: period %.0f ns, feasible=%v\n", s.PeriodNs, s.Feasible)
	for _, ts := range s.Tiles {
		fmt.Fprintf(&b, "  %s\n", ts)
	}
	return b.String()
}

// Build derives and verifies the static-order schedules for a mapping
// produced by the spatial mapper on plat.
func Build(app *model.Application, plat *arch.Platform, res *core.Result) (*Schedule, error) {
	if res.Mapped == nil {
		return nil, fmt.Errorf("schedule: result has no mapped graph")
	}
	mg := res.Mapped
	rv, err := csdf.Repetition(mg.Graph)
	if err != nil {
		return nil, err
	}
	topo, err := topoOrder(app)
	if err != nil {
		return nil, err
	}

	// Collect per-tile actor lists in stream topological order.
	byTile := make(map[arch.TileID][]model.ProcessID)
	for _, pid := range topo {
		tid := mg.ActorTile[mg.ProcActor[pid]]
		if tid == arch.NoTile {
			continue
		}
		byTile[tid] = append(byTile[tid], pid)
	}

	out := &Schedule{Buffers: make(map[model.ChannelID]int64)}
	var orders [][]csdf.ActorID
	for _, t := range plat.Tiles { // deterministic order
		procs := byTile[t.ID]
		if len(procs) < 2 {
			continue
		}
		ts := TileSchedule{Tile: t.Name}
		var seq []csdf.ActorID
		for _, pid := range procs {
			aid := mg.ProcActor[pid]
			fires := rv.Firings(mg.Graph, aid)
			ts.Entries = append(ts.Entries, Entry{Actor: app.Process(pid).Name, Firings: fires})
			for k := int64(0); k < fires; k++ {
				seq = append(seq, aid)
			}
		}
		out.Tiles = append(out.Tiles, ts)
		orders = append(orders, seq)
	}

	// Verify under the enforced orders, re-sizing buffers: SAS batches
	// whole iterations, so consumer-side buffers typically grow.
	buf, err := csdf.BufferSizes(mg.Graph, csdf.BufferOptions{
		TargetPeriod: float64(app.QoS.PeriodNs),
		Exec: csdf.ExecOptions{
			WarmupIterations:  4,
			MeasureIterations: 8,
			Observe:           mg.Sink,
			Source:            mg.Source,
			StaticOrders:      orders,
		},
	})
	if err != nil {
		return nil, err
	}
	out.PeriodNs = buf.Exec.Period
	out.Feasible = buf.Met
	for cid, edge := range mg.StreamEdge {
		if edge < 0 {
			continue
		}
		if cap, ok := buf.Capacities[edge]; ok {
			out.Buffers[model.ChannelID(cid)] = cap
		} else {
			out.Buffers[model.ChannelID(cid)] = mg.Graph.Channel(edge).Capacity
		}
	}
	return out, nil
}

// topoOrder sorts the data processes along the stream's channels
// (Kahn's algorithm; ties resolved by declaration order for determinism).
func topoOrder(app *model.Application) ([]model.ProcessID, error) {
	var procs []*model.Process
	for _, p := range app.Processes {
		if !p.Control {
			procs = append(procs, p)
		}
	}
	indeg := make(map[model.ProcessID]int, len(procs))
	for _, c := range app.StreamChannels() {
		indeg[c.Dst]++
	}
	emitted := make(map[model.ProcessID]bool, len(procs))
	var order []model.ProcessID
	for len(order) < len(procs) {
		progressed := false
		for _, p := range procs {
			if emitted[p.ID] || indeg[p.ID] != 0 {
				continue
			}
			order = append(order, p.ID)
			emitted[p.ID] = true
			for _, c := range app.StreamChannels() {
				if c.Src == p.ID {
					indeg[c.Dst]--
				}
			}
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("schedule: application %q has a channel cycle", app.Name)
		}
	}
	return order, nil
}
