// Package energy is the cost model shared by the spatial mapper, the
// baselines and the evaluators: processing energy per implementation,
// communication energy per byte and hop, and idle energy for powered
// tiles. The paper's objective is minimal energy for processing plus
// interprocess communication (§1.3); unused parts of the system can be
// turned off (§3, step 2), which the idle term rewards.
package energy

import (
	"fmt"
	"slices"

	"rtsm/internal/arch"
	"rtsm/internal/model"
)

// Params holds the coefficients of the energy model. All energies are in
// nanojoule, normalised per QoS period (per OFDM symbol in the paper's
// case study) so they compose directly with Table 1's numbers.
type Params struct {
	// HopPerByte is the energy to move one byte across one router-to-
	// router link.
	HopPerByte float64
	// NIPerByte is the energy to move one byte through a network
	// interface (paid once entering and once leaving the NoC).
	NIPerByte float64
	// IdlePerPeriod is the energy a powered-on tile consumes per period
	// even when idle, by tile type. Tiles with no processes are switched
	// off and consume nothing.
	IdlePerPeriod map[arch.TileType]float64
}

// DefaultParams returns coefficients calibrated so that communication and
// idle energies are the same order of magnitude as Table 1's processing
// energies (tens to hundreds of nJ per symbol).
func DefaultParams() Params {
	return Params{
		HopPerByte: 0.05,
		NIPerByte:  0.02,
		IdlePerPeriod: map[arch.TileType]float64{
			arch.TypeARM:     8,
			arch.TypeMontium: 3,
			arch.TypeDSP:     5,
		},
	}
}

// Breakdown splits a mapping's energy per QoS period into its components.
type Breakdown struct {
	Processing    float64
	Communication float64
	Idle          float64
}

// Total returns the summed energy per period.
func (b Breakdown) Total() float64 { return b.Processing + b.Communication + b.Idle }

func (b Breakdown) String() string {
	return fmt.Sprintf("total %.1f nJ/period (proc %.1f, comm %.1f, idle %.1f)",
		b.Total(), b.Processing, b.Communication, b.Idle)
}

// CommEnergy returns the energy per period of carrying the channel's
// traffic across the given number of router-to-router hops. Zero hops
// means both endpoints share a tile: the transfer stays in tile-local
// memory and the NoC is not involved.
func (p Params) CommEnergy(c *model.Channel, hops int) float64 {
	if hops <= 0 {
		return 0
	}
	bytes := float64(c.BytesPerPeriod())
	return bytes * (2*p.NIPerByte + p.HopPerByte*float64(hops))
}

// IdleEnergy returns the per-period idle cost of powering the given tile.
func (p Params) IdleEnergy(t *arch.Tile) float64 { return p.IdlePerPeriod[t.Type] }

// Assignment is the minimal view of a mapping the energy model needs:
// which implementation serves each process, on which tile, and how many
// hops each channel crosses. Pinned endpoint processes appear with a nil
// implementation.
type Assignment struct {
	Impl map[model.ProcessID]*model.Implementation
	Tile map[model.ProcessID]arch.TileID
	// Hops holds per-channel hop counts. Channels absent from the map are
	// costed by the Manhattan distance of their endpoint tiles, the
	// mapper's pre-routing estimate.
	Hops map[model.ChannelID]int
}

// Evaluate computes the full energy breakdown of an assignment on a
// platform, summing by process, channel and tile ID, so the same
// assignment always prices to the same bits.
func (p Params) Evaluate(app *model.Application, plat *arch.Platform, asg Assignment) Breakdown {
	var b Breakdown
	for _, proc := range app.Processes {
		if im := asg.Impl[proc.ID]; im != nil {
			b.Processing += im.EnergyPerPeriod
		}
	}
	for _, c := range app.StreamChannels() {
		if hops, ok := asg.hops(plat, c); ok {
			b.Communication += p.CommEnergy(c, hops)
		}
	}
	var buf [64]arch.TileID // a small application's powered set stays on the stack
	for _, tid := range asg.powered(app, buf[:0]) {
		b.Idle += p.IdleEnergy(plat.Tile(tid))
	}
	return b
}

// hops returns channel c's hop count, or the Manhattan estimate when it
// has none; false when an endpoint is unplaced.
func (asg Assignment) hops(plat *arch.Platform, c *model.Channel) (int, bool) {
	if hops, ok := asg.Hops[c.ID]; ok {
		return hops, true
	}
	st, sok := asg.Tile[c.Src]
	dt, dok := asg.Tile[c.Dst]
	if !sok || !dok {
		return 0, false
	}
	return plat.Manhattan(st, dt), true
}

// powered appends to buf the tiles of the processes the assignment
// implements (pinned ones included), in ascending ID without repeats.
func (asg Assignment) powered(app *model.Application, buf []arch.TileID) []arch.TileID {
	for _, proc := range app.Processes {
		_, implemented := asg.Impl[proc.ID]
		if tid, ok := asg.Tile[proc.ID]; ok && implemented {
			buf = append(buf, tid)
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}
