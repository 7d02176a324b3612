package energy

import (
	"fmt"
	"strings"

	"rtsm/internal/arch"
	"rtsm/internal/model"
)

// ProcessCost itemises one process's processing energy.
type ProcessCost struct {
	Process string
	Impl    string
	Tile    string
	Energy  float64
}

// ChannelCost itemises one channel's communication energy.
type ChannelCost struct {
	Channel string
	Hops    int
	Bytes   int64
	Energy  float64
}

// TileCost itemises one powered tile's idle energy.
type TileCost struct {
	Tile   string
	Energy float64
}

// Report is the itemised counterpart of Breakdown, for operator-facing
// output: which process, channel and tile costs what per period.
type Report struct {
	Breakdown Breakdown
	Processes []ProcessCost
	Channels  []ChannelCost
	Tiles     []TileCost
}

// Detailed computes the full itemised energy report of an assignment.
// Totals equal Evaluate's Breakdown exactly: both sum in the same order.
func (p Params) Detailed(app *model.Application, plat *arch.Platform, asg Assignment) *Report {
	r := &Report{}
	for _, proc := range app.Processes {
		im := asg.Impl[proc.ID]
		if im == nil {
			continue
		}
		tile := ""
		if tid, ok := asg.Tile[proc.ID]; ok {
			tile = plat.Tile(tid).Name
		}
		r.Processes = append(r.Processes, ProcessCost{
			Process: proc.Name,
			Impl:    im.String(),
			Tile:    tile,
			Energy:  im.EnergyPerPeriod,
		})
		r.Breakdown.Processing += im.EnergyPerPeriod
	}
	for _, c := range app.StreamChannels() {
		hops, ok := asg.hops(plat, c)
		if !ok {
			continue
		}
		e := p.CommEnergy(c, hops)
		r.Channels = append(r.Channels, ChannelCost{
			Channel: c.Name,
			Hops:    hops,
			Bytes:   c.BytesPerPeriod(),
			Energy:  e,
		})
		r.Breakdown.Communication += e
	}
	for _, tid := range asg.powered(app, nil) {
		e := p.IdleEnergy(plat.Tile(tid))
		r.Tiles = append(r.Tiles, TileCost{Tile: plat.Tile(tid).Name, Energy: e})
		r.Breakdown.Idle += e
	}
	return r
}

// String renders the report as an indented cost sheet.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "energy per period: %s\n", r.Breakdown)
	b.WriteString("  processing:\n")
	for _, pc := range r.Processes {
		fmt.Fprintf(&b, "    %-16s %-24s on %-10s %8.1f nJ\n", pc.Process, pc.Impl, pc.Tile, pc.Energy)
	}
	b.WriteString("  communication:\n")
	for _, cc := range r.Channels {
		fmt.Fprintf(&b, "    %-24s %d hops × %4d B %8.1f nJ\n", cc.Channel, cc.Hops, cc.Bytes, cc.Energy)
	}
	b.WriteString("  idle (powered tiles):\n")
	for _, tc := range r.Tiles {
		fmt.Fprintf(&b, "    %-16s %8.1f nJ\n", tc.Tile, tc.Energy)
	}
	return b.String()
}
