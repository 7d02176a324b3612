package core

import (
	"fmt"
	"math"
	"strings"

	"rtsm/internal/arch"
	"rtsm/internal/model"
)

// The steps 1 and 2 the incremental ones replaced, kept as the oracle of
// the differential tests: step 1 re-scores every unassigned process after
// every pick, step 2 prices a candidate by walking all stream channels,
// reads tiles from Mapping.Tile and positions from the routers, checks a
// tile's room before pricing it, and records every evaluated row with a
// full copy of the assignment, which the eager table renderer reads back.

// refStep1 is step 1 re-scoring every unassigned process after each pick.
func (m *Mapper) refStep1(ix *appIndex, work *arch.Platform, mp *Mapping, tb *tabu, tr *Trace) *feedback {
	var unassigned []*model.Process
	for _, p := range ix.procs {
		if mp.Impl[p.ID] == nil {
			unassigned = append(unassigned, p)
		}
	}
	for len(unassigned) > 0 {
		type scored struct {
			idx          int
			desirability float64
			best         option
		}
		var pick *scored
		for i, p := range unassigned {
			opts, fb := m.viableOptions(ix, work, mp, p, tb, nil)
			if fb != nil {
				return fb
			}
			s := scored{idx: i, best: opts[0]}
			if len(opts) == 1 {
				s.desirability = math.Inf(1)
			} else {
				s.desirability = opts[1].cost - opts[0].cost
			}
			if m.Cfg.ArbitraryOrder {
				pick = &s
				break
			}
			if pick == nil || s.desirability > pick.desirability {
				s := s
				pick = &s
			}
		}
		p := unassigned[pick.idx]
		opt := pick.best
		wt := work.Tile(opt.tile.ID)
		wt.ReservedMem += opt.im.MemBytes
		wt.ReservedUtil += opt.util
		wt.Occupants++
		mp.Impl[p.ID] = opt.im
		mp.Tile[p.ID] = opt.tile.ID
		tr.Step1 = append(tr.Step1, Step1Record{
			Process:      p.Name,
			Desirability: pick.desirability,
			Impl:         opt.im.String(),
			Tile:         opt.tile.Name,
		})
		unassigned = append(unassigned[:pick.idx], unassigned[pick.idx+1:]...)
	}
	return nil
}

// refSearch is step 2's search with the all-channel delta, map and router
// lookups and eager snapshots; the rest (weights, swapFits,
// applyCandidate, initialRecord) it shares with searchState.
type refSearch struct {
	*searchState
	snaps *[]map[string]string // tile name → process names, one per row
}

// refStep2 returns, next to the trace rows, the assignment each row
// evaluated.
func (m *Mapper) refStep2(ix *appIndex, work *arch.Platform, mp *Mapping, locked map[model.ProcessID]bool, tr *Trace) []map[string]string {
	s := refSearch{&searchState{m: m, ix: ix, work: work, mp: mp, locked: locked}, new([]map[string]string)}
	s.init()
	s.cost = s.totalCost()
	tr.Step2 = append(tr.Step2, s.initialRecord())
	*s.snaps = append(*s.snaps, s.snapshotWith(nil))
	switch m.Cfg.Strategy {
	case BestImprovement:
		s.runBestImprovement(tr)
	default:
		s.runFirstImprovement(tr)
	}
	return *s.snaps
}

func (s refSearch) tileOf(p model.ProcessID, o override) (arch.TileID, bool) {
	switch p {
	case o.p:
		return o.pt, true
	case o.q:
		return o.qt, true
	}
	t, ok := s.mp.Tile[p]
	return t, ok
}

func (s refSearch) channelDist(c *model.Channel, o override) int {
	src, ok := s.tileOf(c.Src, o)
	if !ok {
		return 0
	}
	dst, ok := s.tileOf(c.Dst, o)
	if !ok {
		return 0
	}
	pos := func(id arch.TileID) arch.Point { return s.work.Routers[s.work.Tile(id).Router].Pos }
	return pos(src).Manhattan(pos(dst))
}

func (s refSearch) totalCost() float64 {
	var total float64
	for i, c := range s.ix.chans {
		total += s.weight[i] * float64(s.channelDist(c, current))
	}
	if s.m.Cfg.CommCost == TrafficWeighted {
		params := s.m.Cfg.energyParams()
		powered := make(map[arch.TileID]bool)
		for _, p := range s.ix.procs {
			powered[s.mp.Tile[p.ID]] = true
		}
		for tid := range powered {
			total += params.IdleEnergy(s.work.Tile(tid))
		}
	}
	return total
}

func (s refSearch) idleDelta(o override) float64 {
	params := s.m.Cfg.energyParams()
	before := make(map[arch.TileID]int)
	after := make(map[arch.TileID]int)
	for _, p := range s.ix.procs {
		before[s.mp.Tile[p.ID]]++
		next, _ := s.tileOf(p.ID, o)
		after[next]++
	}
	var delta float64
	for tid := range before {
		if after[tid] == 0 {
			delta -= params.IdleEnergy(s.work.Tile(tid))
		}
	}
	for tid := range after {
		if before[tid] == 0 {
			delta += params.IdleEnergy(s.work.Tile(tid))
		}
	}
	return delta
}

// deltaFor re-prices every stream channel with a relocated endpoint,
// walking all of them in declaration order.
func (s refSearch) deltaFor(o override) float64 {
	var delta float64
	for i, c := range s.ix.chans {
		if c.Src != o.p && c.Src != o.q && c.Dst != o.p && c.Dst != o.q {
			continue
		}
		delta += s.weight[i] * float64(s.channelDist(c, o)-s.channelDist(c, current))
	}
	if s.m.Cfg.CommCost == TrafficWeighted {
		delta += s.idleDelta(o)
	}
	return delta
}

func (s refSearch) bestCandidateFor(pi int) *candidate {
	p := s.ix.procs[pi]
	if s.locked[p.ID] {
		return nil
	}
	cur := s.mp.Tile[p.ID]
	im := s.mp.Impl[p.ID]
	curTile := s.work.Tile(cur)
	var best *candidate
	consider := func(c candidate) {
		if best == nil || c.delta < best.delta {
			cc := c
			best = &cc
		}
	}
	cyc, err := im.CyclesPerPeriod(s.ix.app, p)
	if err != nil {
		return nil
	}
	ni := s.ix.ni[p.ID]
	for _, tid := range s.work.TilesOfType(im.TileType) {
		if tid == cur {
			continue
		}
		t := s.work.Tile(tid)
		tUtil := utilisation(t, cyc, s.ix.app.QoS.PeriodNs)
		if !canHost(t, im.MemBytes, tUtil) || !ni.fits(t) {
			continue
		}
		delta := s.deltaFor(override{p: p.ID, pt: t.ID, q: noProcess})
		consider(candidate{kind: Move, p: p, to: t.ID, delta: delta})
	}
	for qi := pi + 1; qi < len(s.ix.procs); qi++ {
		q := s.ix.procs[qi]
		if s.locked[q.ID] {
			continue
		}
		qTile := s.mp.Tile[q.ID]
		if qTile == cur {
			continue
		}
		qIm := s.mp.Impl[q.ID]
		if s.work.Tile(qTile).Type != curTile.Type || qIm.TileType != im.TileType {
			continue
		}
		if !s.swapFits(p, im, cur, q, qIm, qTile) {
			continue
		}
		delta := s.deltaFor(override{p: p.ID, pt: qTile, q: q.ID, qt: cur})
		consider(candidate{kind: Swap, p: p, q: q, to: qTile, delta: delta})
	}
	return best
}

// snapshotWith renders tile name → process names as the assignment would
// look after a candidate; nil renders the current assignment.
func (s refSearch) snapshotWith(c *candidate) map[string]string {
	o := current
	if c != nil {
		o = override{p: c.p.ID, pt: c.to, q: noProcess}
		if c.kind == Swap {
			o = override{p: c.p.ID, pt: s.mp.Tile[c.q.ID], q: c.q.ID, qt: s.mp.Tile[c.p.ID]}
		}
	}
	out := make(map[string]string)
	for _, p := range s.ix.procs {
		t, _ := s.tileOf(p.ID, o)
		name := s.work.Tile(t).Name
		if out[name] != "" {
			out[name] += "+" + p.Name
		} else {
			out[name] = p.Name
		}
	}
	return out
}

func (s refSearch) record(tr *Trace, iter int, c *candidate, accepted bool) {
	remark := "No improvement, revert"
	if accepted {
		remark = "Improvement, keep"
	}
	rec := Step2Record{
		Iteration: iter,
		Kind:      c.kind,
		ProcA:     c.p.Name,
		TileA:     s.work.Tile(s.mp.Tile[c.p.ID]).Name,
		Cost:      s.cost + c.delta,
		Accepted:  accepted,
		Remark:    remark,
	}
	*s.snaps = append(*s.snaps, s.snapshotWith(c))
	if c.q != nil {
		rec.ProcB = c.q.Name
		rec.TileB = s.work.Tile(s.mp.Tile[c.q.ID]).Name
	} else {
		rec.TileB = s.work.Tile(c.to).Name
	}
	tr.Step2 = append(tr.Step2, rec)
}

func (s refSearch) runFirstImprovement(tr *Trace) {
	iter := 0
	for {
		improved := false
		for pi := range s.ix.procs {
			c := s.bestCandidateFor(pi)
			if c == nil {
				continue
			}
			iter++
			if iter > maxStep2Iterations {
				tr.Notes = append(tr.Notes, fmt.Sprintf("step 2 stopped at iteration cap %d", maxStep2Iterations))
				return
			}
			accept := c.delta < 0
			s.record(tr, iter, c, accept)
			if accept {
				s.applyCandidate(*c)
				improved = true
				break
			}
		}
		if !improved {
			tr.Notes = append(tr.Notes, "No further choices")
			return
		}
	}
}

func (s refSearch) runBestImprovement(tr *Trace) {
	iter := 0
	for {
		var best *candidate
		for pi := range s.ix.procs {
			if c := s.bestCandidateFor(pi); c != nil && (best == nil || c.delta < best.delta) {
				best = c
			}
		}
		if best == nil {
			tr.Notes = append(tr.Notes, "No further choices")
			return
		}
		iter++
		if iter > maxStep2Iterations {
			tr.Notes = append(tr.Notes, fmt.Sprintf("step 2 stopped at iteration cap %d", maxStep2Iterations))
			return
		}
		accept := best.delta < 0
		s.record(tr, iter, best, accept)
		if !accept {
			return
		}
		s.applyCandidate(*best)
	}
}

// refRenderStep2Table is the eager Table-2 renderer: every row reads the
// assignment recorded for it.
func refRenderStep2Table(t *Trace, snaps []map[string]string, tileOrder []string) string {
	var b strings.Builder
	b.WriteString("Iter")
	for _, tile := range tileOrder {
		fmt.Fprintf(&b, "\t%s", tile)
	}
	b.WriteString("\tCost\tRemark\n")
	for i, r := range t.Step2 {
		iter := "-"
		if r.Kind != Initial {
			iter = fmt.Sprintf("%d", r.Iteration)
		}
		b.WriteString(iter)
		for _, tile := range tileOrder {
			proc := snaps[i][tile]
			if proc == "" {
				proc = "·"
			}
			fmt.Fprintf(&b, "\t%s", proc)
		}
		fmt.Fprintf(&b, "\t%.0f\t%s\n", r.Cost, r.Remark)
	}
	return b.String()
}

// refNIDemand is a process's NI demand derived straight from the model,
// the way steps 1 and 2 derived it per candidate before the index.
func refNIDemand(app *model.Application, p *model.Process) niDemand {
	var d niDemand
	for _, c := range app.ChannelsOf(p.ID) {
		bps := channelBps(c, app.QoS.PeriodNs)
		if c.Dst == p.ID {
			d.inBps += bps
		} else {
			d.outBps += bps
		}
	}
	return d
}
