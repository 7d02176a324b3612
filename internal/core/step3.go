package core

import (
	"cmp"
	"fmt"
	"slices"

	"rtsm/internal/arch"
	"rtsm/internal/model"
	"rtsm/internal/noc"
)

// step3 assigns channels to NoC paths (paper §3, step 3): channels are
// sorted by non-increasing throughput so heavily demanding channels get
// first pick, then each channel is routed over a capacity-aware shortest
// path considering the loads of previously mapped channels, and its
// guaranteed-throughput lane is reserved incrementally.
func (m *Mapper) step3(ix *appIndex, work *arch.Platform, mp *Mapping, tr *Trace) *feedback {
	app := ix.app
	type job struct {
		c   *model.Channel
		bps int64
	}
	var jobs []job
	for _, c := range ix.chans {
		if _, routed := mp.Route[c.ID]; routed {
			// Salvaged by the repair path: the route is already reserved
			// on the working platform.
			continue
		}
		if _, ok := mp.Tile[c.Src]; !ok {
			continue
		}
		if _, ok := mp.Tile[c.Dst]; !ok {
			continue
		}
		jobs = append(jobs, job{c: c, bps: channelBps(c, app.QoS.PeriodNs)})
	}
	if !m.Cfg.UnsortedChannels {
		slices.SortStableFunc(jobs, func(a, b job) int { return cmp.Compare(b.bps, a.bps) })
	}
	for _, j := range jobs {
		st := mp.Tile[j.c.Src]
		dt := mp.Tile[j.c.Dst]
		if st == dt {
			// Same tile: the stream stays in local memory, no NoC lane.
			mp.Route[j.c.ID] = noc.Path{}
			continue
		}
		srcTile := work.Tile(st)
		dstTile := work.Tile(dt)
		if srcTile.NICapBps > 0 && srcTile.NICapBps-srcTile.ReservedOutBps < j.bps {
			return m.routeFeedback(app, mp, j.c, fmt.Sprintf("NI of %q out of outbound bandwidth", srcTile.Name))
		}
		if dstTile.NICapBps > 0 && dstTile.NICapBps-dstTile.ReservedInBps < j.bps {
			return m.routeFeedback(app, mp, j.c, fmt.Sprintf("NI of %q out of inbound bandwidth", dstTile.Name))
		}
		var (
			path noc.Path
			err  error
		)
		switch m.Cfg.Router {
		case XYOnly:
			path, err = noc.XY(work, srcTile.Router, dstTile.Router, j.bps)
		default:
			path, err = noc.ShortestAvailable(work, srcTile.Router, dstTile.Router, j.bps)
		}
		if err != nil {
			return m.routeFeedback(app, mp, j.c, err.Error())
		}
		noc.Reserve(work, path, st, dt, j.bps)
		mp.Route[j.c.ID] = path
		tr.Step3 = append(tr.Step3, Step3Record{
			Channel: j.c.Name,
			Bps:     j.bps,
			Hops:    path.Hops(),
			Routers: path.Routers,
		})
	}
	return nil
}

// routeFeedback builds the step-3 failure feedback: ban the channel's
// mappable endpoint (preferring the source) from its current tile so the
// next attempt places it elsewhere and the channel gets a different
// corridor.
func (m *Mapper) routeFeedback(app *model.Application, mp *Mapping, c *model.Channel, detail string) *feedback {
	pick := func(pid model.ProcessID) *feedback {
		return &feedback{
			kind:       fbRouteFailure,
			process:    pid,
			banTile:    mp.Tile[pid],
			useBanTile: true,
			detail:     fmt.Sprintf("channel %q unroutable: %s", c.Name, detail),
		}
	}
	if !isPinned(app, c.Src) {
		return pick(c.Src)
	}
	if !isPinned(app, c.Dst) {
		return pick(c.Dst)
	}
	// Both endpoints pinned: no placement change can help.
	return &feedback{
		kind:    fbRouteFailure,
		process: c.Src,
		detail:  fmt.Sprintf("channel %q between pinned tiles unroutable: %s", c.Name, detail),
	}
}

func isPinned(app *model.Application, pid model.ProcessID) bool {
	return app.Process(pid).PinnedTile != ""
}
