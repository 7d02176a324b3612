// Package sim validates spatial mappings by discrete-event simulation: it
// re-executes the mapped application's CSDF graph with processor sharing
// made explicit — actors placed on the same tile cannot fire concurrently.
// The mapper's step 4 admits co-location by a utilisation-sum argument
// (Σ util ≤ 1), which is necessary but ignores interleaving; the
// simulator measures what actually happens, so experiment E11 can
// cross-check every feasibility verdict independently.
//
// NoC contention needs no equivalent treatment: the platform reserves
// guaranteed-throughput lanes per channel (paper §1.1, §4.3), so channels
// do not interfere by construction and the per-channel router actors of
// the mapped graph already carry the worst-case per-hop latency.
package sim

import (
	"fmt"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
)

// Report is the outcome of one validation run.
type Report struct {
	// PeriodNs is the steady-state period measured with tile exclusivity
	// enforced.
	PeriodNs float64
	// LatencyNs is the measured end-to-end latency.
	LatencyNs int64
	// RequiredNs echoes the application's period constraint.
	RequiredNs int64
	// MeetsThroughput is PeriodNs ≤ RequiredNs.
	MeetsThroughput bool
	// Deadlocked reports a simulation deadlock (a mapper bug or an
	// undersized buffer).
	Deadlocked bool
	// TileUtilisation is the measured busy fraction per tile name.
	TileUtilisation map[string]float64
}

func (r *Report) String() string {
	verdict := "MEETS"
	if !r.MeetsThroughput {
		verdict = "MISSES"
	}
	return fmt.Sprintf("sim: period %.0f ns (%s %d ns), latency %d ns",
		r.PeriodNs, verdict, r.RequiredNs, r.LatencyNs)
}

// Validate re-executes the mapping's CSDF graph with actors grouped into
// mutual exclusion sets per tile and reports the measured timing. plat is
// the platform res was mapped on; only its tiles' descriptions are read.
func Validate(app *model.Application, plat *arch.Platform, res *core.Result) (*Report, error) {
	if res.Mapped == nil || res.Graph == nil {
		return nil, fmt.Errorf("sim: result has no mapped graph (mapping attempt aborted before step 4)")
	}
	mg := res.Mapped
	// Members join their group in ascending actor order, which keeps
	// arbitration reproducible.
	groups := make(map[arch.TileID][]csdf.ActorID)
	for actor, tile := range mg.ActorTile {
		if tile == arch.NoTile {
			continue
		}
		groups[tile] = append(groups[tile], csdf.ActorID(actor))
	}
	var exclusive [][]csdf.ActorID
	for _, tile := range plat.Tiles { // deterministic order
		if members := groups[tile.ID]; len(members) > 1 {
			exclusive = append(exclusive, members)
		}
	}
	exec, err := res.Graph.Execute(csdf.ExecOptions{
		WarmupIterations:  4,
		MeasureIterations: 8,
		Observe:           mg.Sink,
		Source:            mg.Source,
		ExclusiveGroups:   exclusive,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		PeriodNs:        exec.Period,
		LatencyNs:       exec.Latency,
		RequiredNs:      app.QoS.PeriodNs,
		Deadlocked:      exec.Deadlocked,
		TileUtilisation: make(map[string]float64),
	}
	rep.MeetsThroughput = !exec.Deadlocked && exec.Period <= float64(app.QoS.PeriodNs)
	for actor, tile := range mg.ActorTile {
		if tile == arch.NoTile {
			continue
		}
		rep.TileUtilisation[plat.Tile(tile).Name] += exec.Utilisation(csdf.ActorID(actor))
	}
	return rep, nil
}
