package core

import (
	"fmt"
	"slices"
	"strconv"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
)

// MappedGraph is the CSDF graph of a mapped application (the paper's
// Figure 3): one actor per data process, plus one router actor per hop of
// every routed channel, with the bookkeeping needed to relate graph
// entities back to the mapping.
type MappedGraph struct {
	Graph *csdf.Graph
	// ActorTile gives the tile hosting each actor, indexed by actor ID;
	// router actors map to arch.NoTile.
	ActorTile []arch.TileID
	// ProcActor gives each data process's actor, indexed by process ID;
	// control processes have none (-1).
	ProcActor []csdf.ActorID
	// StreamEdge gives each stream channel's consumer-side CSDF channel,
	// indexed by channel ID (-1 for control channels): the edge whose
	// capacity is the stream buffer B_i that step 4 sizes and charges to
	// the consumer's tile.
	StreamEdge []csdf.ChannelID
	// Source and Sink delimit latency measurements.
	Source, Sink csdf.ActorID
}

// routerFIFOTokens is the fixed depth of the per-hop channels between
// router actors, matching the "4" edge annotations in the paper's
// Figure 3 (buffered router inputs).
const routerFIFOTokens = 4

// BuildMappedGraph constructs the CSDF graph of a mapped application. The
// time unit is nanoseconds: implementation WCETs are converted from clock
// cycles at their tile's clock, and each router contributes its 4-cycle
// worst-case latency at the NoC clock (paper §4.3). Throughput across a
// lane is guaranteed by the bandwidth reservation made in step 3, so
// router actors model latency, not serialisation at the reserved rate.
func BuildMappedGraph(app *model.Application, plat *arch.Platform, mp *Mapping) (*MappedGraph, error) {
	chans := app.StreamChannels()
	streamIn := make([]int, len(app.Processes))
	streamOut := make([]int, len(app.Processes))
	totalHops := 0
	for _, c := range chans {
		streamOut[c.Src]++
		streamIn[c.Dst]++
		totalHops += mp.Route[c.ID].Hops()
	}
	// One actor per data process and per hop, one edge per stream channel
	// and per hop.
	g := csdf.NewGraph(app.Name + "-mapped")
	g.Grow(len(app.Processes)+totalHops, len(chans)+totalHops)
	out := &MappedGraph{
		Graph:      g,
		ActorTile:  make([]arch.TileID, 0, len(app.Processes)+totalHops),
		ProcActor:  slices.Repeat([]csdf.ActorID{-1}, len(app.Processes)),
		StreamEdge: slices.Repeat([]csdf.ChannelID{-1}, len(app.Channels)),
		Source:     -1,
		Sink:       -1,
	}
	// One actor per data process.
	for _, p := range app.Processes {
		if p.Control {
			continue
		}
		var aid csdf.ActorID
		switch {
		case p.PinnedTile != "":
			// Pinned endpoints pace the stream: one firing per QoS
			// period for sources; sinks drain at negligible cost.
			if streamIn[p.ID] == 0 {
				aid = g.AddActor(p.Name, csdf.Vals(app.QoS.PeriodNs))
			} else {
				aid = g.AddActor(p.Name, csdf.Vals(1))
			}
			out.ActorTile = append(out.ActorTile, plat.TileByName(p.PinnedTile).ID)
		default:
			im := mp.Impl[p.ID]
			tid, ok := mp.Tile[p.ID]
			if im == nil || !ok {
				return nil, fmt.Errorf("core: process %q is unmapped", p.Name)
			}
			clock := plat.Tile(tid).ClockHz
			if clock <= 0 {
				return nil, fmt.Errorf("core: tile %q has no clock", plat.Tile(tid).Name)
			}
			aid = g.AddActor(p.Name, im.WCET.ScaleDiv(1_000_000_000, clock))
			out.ActorTile = append(out.ActorTile, tid)
		}
		out.ProcActor[p.ID] = aid
		if streamIn[p.ID] == 0 && out.Source < 0 {
			out.Source = aid
		}
		if streamOut[p.ID] == 0 {
			out.Sink = aid // last such wins: the stream's end
		}
	}

	routerWCET := csdf.Vals(routerHopNs(plat))
	perToken := csdf.Vals(1)
	for _, c := range chans {
		srcActor := out.ProcActor[c.Src]
		dstActor := out.ProcActor[c.Dst]
		prod, err := ratePattern(app, mp, c, c.Src, true, g.Actor(srcActor).Phases())
		if err != nil {
			return nil, err
		}
		cons, err := ratePattern(app, mp, c, c.Dst, false, g.Actor(dstActor).Phases())
		if err != nil {
			return nil, err
		}
		path := mp.Route[c.ID]
		hops := path.Hops()
		if hops == 0 {
			// Same tile or same router: a single buffered edge.
			out.StreamEdge[c.ID] = g.Connect(srcActor, dstActor, prod, cons, 0)
			continue
		}
		// One router actor per link traversed, each forwarding token by
		// token with the router's worst-case latency.
		prev := srcActor
		prevPat := prod
		for h := 0; h < hops; h++ {
			r := g.AddActor("R("+c.Name+"#"+strconv.Itoa(h)+")", routerWCET)
			out.ActorTile = append(out.ActorTile, arch.NoTile)
			edge := g.Connect(prev, r, prevPat, perToken, 0)
			if h == 0 {
				// The producer-side buffer belongs to the implementation
				// (its output FIFO). It is double-buffered: it holds two
				// full production bursts so the producer can fill burst
				// k+1 while the NoC drains burst k; a single burst would
				// throttle every producer to burst time plus drain time.
				g.Channel(edge).Capacity = max(routerFIFOTokens, 2*prevPat.Max())
			} else {
				g.Channel(edge).Capacity = routerFIFOTokens
			}
			prev = r
			prevPat = perToken
		}
		// The consumer-side edge carries the sized stream buffer B_i.
		out.StreamEdge[c.ID] = g.Connect(prev, dstActor, prevPat, cons, 0)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: mapped graph invalid: %w", err)
	}
	return out, nil
}

// routerHopNs is the per-token forwarding latency of one router in ns.
func routerHopNs(plat *arch.Platform) int64 {
	clock := plat.NoCClockHz
	if clock <= 0 {
		clock = 200_000_000
	}
	var lat int64 = 4
	if len(plat.Routers) > 0 {
		lat = plat.Routers[0].LatencyCycles
	}
	return (lat*1_000_000_000 + clock - 1) / clock
}

// ratePattern resolves the CSDF rate pattern a process contributes to a
// channel end: pinned endpoints transfer the whole per-period token count
// in their single phase; mapped processes use their implementation's port
// patterns.
func ratePattern(app *model.Application, mp *Mapping, c *model.Channel, pid model.ProcessID, producing bool, phases int) (csdf.Pattern, error) {
	p := app.Process(pid)
	if p.PinnedTile != "" {
		pat := make(csdf.Pattern, phases)
		pat[phases-1] = c.TokensPerPeriod
		return pat, nil
	}
	im := mp.Impl[pid]
	var pat csdf.Pattern
	if producing {
		pat = im.Out[c.SrcPort]
	} else {
		pat = im.In[c.DstPort]
	}
	if pat == nil {
		side := "input"
		port := c.DstPort
		if producing {
			side = "output"
			port = c.SrcPort
		}
		return nil, fmt.Errorf("core: implementation %s has no %s port %q for channel %q", im, side, port, c.Name)
	}
	return pat, nil
}

// step4 checks the application constraints on the mapped CSDF graph
// (paper §3, step 4): it computes the stream buffer capacities with the
// dataflow analysis, verifies the throughput and latency constraints, and
// verifies the buffers fit the consuming tiles' memories. On violation it
// produces feedback identifying the decision to revisit.
func (m *Mapper) step4(ix *appIndex, work *arch.Platform, mp *Mapping, tr *Trace) (*Result, *feedback) {
	app := ix.app
	mg, err := BuildMappedGraph(app, work, mp)
	if err != nil {
		tr.Notes = append(tr.Notes, "step 4: "+err.Error())
		res := m.infeasibleResult(app, work, mp, tr)
		return res, nil
	}
	exec := csdf.ExecOptions{
		WarmupIterations:  4,
		MeasureIterations: 8,
		Observe:           mg.Sink,
		Source:            mg.Source,
	}
	buf, err := csdf.BufferSizes(mg.Graph, csdf.BufferOptions{
		TargetPeriod: float64(app.QoS.PeriodNs),
		Exec:         exec,
	})
	if err != nil {
		tr.Notes = append(tr.Notes, "step 4: "+err.Error())
		res := m.infeasibleResult(app, work, mp, tr)
		return res, m.throughputFeedback(ix, mp, mg, nil)
	}
	for cid, edge := range mg.StreamEdge {
		if cap, ok := buf.Capacities[edge]; ok {
			mp.Buffers[model.ChannelID(cid)] = cap
			mg.Graph.Channel(edge).Capacity = cap
		}
	}

	res := &Result{
		Mapping:  mp,
		Graph:    mg.Graph,
		Mapped:   mg,
		Analysis: buf.Exec,
		Trace:    tr,
	}
	params := m.Cfg.energyParams()
	res.Energy = params.Evaluate(app, work, AssignmentView(mp))

	if !buf.Met {
		tr.Notes = append(tr.Notes, fmt.Sprintf("step 4: period %.0f ns exceeds required %d ns", buf.Exec.Period, app.QoS.PeriodNs))
		return res, m.throughputFeedback(ix, mp, mg, buf.Exec)
	}
	if app.QoS.LatencyNs > 0 && buf.Exec.Latency > app.QoS.LatencyNs {
		tr.Notes = append(tr.Notes, fmt.Sprintf("step 4: latency %d ns exceeds bound %d ns", buf.Exec.Latency, app.QoS.LatencyNs))
		return res, m.latencyFeedback(ix, mp)
	}
	if fb := m.reserveBuffers(ix, work, mp); fb != nil {
		tr.Notes = append(tr.Notes, "step 4: "+fb.detail)
		return res, fb
	}
	res.Feasible = true
	return res, nil
}

// throughputFeedback picks the bottleneck: the busiest mapped actor. If it
// is a process actor, its implementation choice is banned so step 1 tries
// another tile type; if only routers are busy, the consumer of the slowest
// route is displaced instead.
func (m *Mapper) throughputFeedback(ix *appIndex, mp *Mapping, mg *MappedGraph, exec *csdf.ExecResult) *feedback {
	var bottleneck *model.Process
	var worst float64
	if exec != nil {
		for _, p := range ix.procs {
			if u := exec.Utilisation(mg.ProcActor[p.ID]); u > worst {
				worst = u
				bottleneck = p
			}
		}
	}
	if bottleneck == nil {
		// No execution data: displace the process with the largest
		// per-period cycle demand, the likeliest culprit.
		var worstCyc int64 = -1
		for _, p := range ix.procs {
			im := mp.Impl[p.ID]
			if im == nil {
				continue
			}
			if cyc, err := im.CyclesPerPeriod(ix.app, p); err == nil && cyc > worstCyc {
				worstCyc = cyc
				bottleneck = p
			}
		}
	}
	if bottleneck == nil {
		return nil
	}
	im := mp.Impl[bottleneck.ID]
	if len(m.Lib.For(bottleneck.Name)) > 1 {
		return &feedback{
			kind:        fbThroughput,
			process:     bottleneck.ID,
			banImplType: im.TileType,
			detail:      fmt.Sprintf("process %q on %s is the throughput bottleneck", bottleneck.Name, im.TileType),
		}
	}
	return &feedback{
		kind:       fbThroughput,
		process:    bottleneck.ID,
		banTile:    mp.Tile[bottleneck.ID],
		useBanTile: true,
		detail:     fmt.Sprintf("process %q is the throughput bottleneck; displacing it", bottleneck.Name),
	}
}

// latencyFeedback displaces the endpoint of the longest route.
func (m *Mapper) latencyFeedback(ix *appIndex, mp *Mapping) *feedback {
	var worst *model.Channel
	hops := -1
	for _, c := range ix.chans {
		if path, ok := mp.Route[c.ID]; ok && path.Hops() > hops {
			hops = path.Hops()
			worst = c
		}
	}
	if worst == nil {
		return nil
	}
	pid := worst.Src
	if isPinned(ix.app, pid) {
		pid = worst.Dst
	}
	if isPinned(ix.app, pid) {
		return nil
	}
	return &feedback{
		kind:       fbLatency,
		process:    pid,
		banTile:    mp.Tile[pid],
		useBanTile: true,
		detail:     fmt.Sprintf("channel %q contributes %d hops to the latency", worst.Name, hops),
	}
}

// reserveBuffers charges each stream buffer to the consuming tile's
// memory (paper §4.4: "an attempt should be made to allocate the
// additional required buffer size on the tiles the consuming actor is
// mapped onto").
func (m *Mapper) reserveBuffers(ix *appIndex, work *arch.Platform, mp *Mapping) *feedback {
	app := ix.app
	for _, c := range ix.chans {
		buf, ok := mp.Buffers[c.ID]
		if !ok || buf == 0 {
			continue
		}
		tid, ok := mp.Tile[c.Dst]
		if !ok {
			continue
		}
		t := work.Tile(tid)
		need := buf * c.TokenBytes
		if t.MemBytes > 0 && t.FreeMem() < need {
			pid := c.Dst
			if isPinned(app, pid) {
				pid = c.Src
				if isPinned(app, pid) {
					return &feedback{
						kind:    fbBufferOverflow,
						process: c.Dst,
						detail:  fmt.Sprintf("buffer of %q (%d B) exceeds pinned tile %q", c.Name, need, t.Name),
					}
				}
			}
			return &feedback{
				kind:       fbBufferOverflow,
				process:    pid,
				banTile:    mp.Tile[pid],
				useBanTile: true,
				detail:     fmt.Sprintf("buffer of %q (%d B) does not fit tile %q", c.Name, need, t.Name),
			}
		}
		if t.MemBytes > 0 {
			work.Tile(tid).ReservedMem += need
		}
	}
	return nil
}
