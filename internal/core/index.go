package core

import "rtsm/internal/model"

// appIndex is what the steps and the repair path read of a validated
// application, derived once per Map, Repair or FinishAssignment call
// rather than per candidate.
type appIndex struct {
	app      *model.Application
	procs    []*model.Process // mappable, in declaration order
	chans    []*model.Channel // stream channels, in declaration order
	incident [][]int32        // by ProcessID: ascending indices into chans
	ni       []niDemand       // by ProcessID
}

func newAppIndex(app *model.Application) *appIndex {
	n := len(app.Processes)
	ix := &appIndex{app: app, procs: app.MappableProcesses(), chans: app.StreamChannels(),
		incident: make([][]int32, n), ni: make([]niDemand, n)}
	// The incident lists share one slab; validation rules out self-loops,
	// so every channel has two distinct ends.
	deg := make([]int, n)
	for _, c := range ix.chans {
		deg[c.Src]++
		deg[c.Dst]++
	}
	slab := make([]int32, 2*len(ix.chans))
	for p, d := range deg {
		ix.incident[p], slab = slab[:0:d], slab[d:]
	}
	for i, c := range ix.chans {
		bps := channelBps(c, app.QoS.PeriodNs)
		ix.incident[c.Src] = append(ix.incident[c.Src], int32(i))
		ix.incident[c.Dst] = append(ix.incident[c.Dst], int32(i))
		ix.ni[c.Src].outBps += bps
		ix.ni[c.Dst].inBps += bps
	}
	return ix
}
