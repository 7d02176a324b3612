package core

import (
	"fmt"
	"slices"

	"rtsm/internal/arch"
	"rtsm/internal/model"
)

// step2 improves the concrete tile assignment by local search (paper §3,
// step 2): every candidate either moves a process to the best available
// tile of the same type or swaps it with another process on the same tile
// type, so adequacy holds by construction. Candidates are scored by the
// communication cost model — by default the plain sum of Manhattan
// distances over all stream channels, the metric of the paper's Table 2,
// which also embodies the "bonus for proximity to the process's
// neighbours": closer neighbours mean lower cost.
// Processes the seed settles keep their tiles: they are neither moved nor
// offered as swap partners, but their channels still price into the cost
// every candidate is scored by.
func (m *Mapper) step2(ix *appIndex, work *arch.Platform, mp *Mapping, seed *seedMapping, tr *Trace) {
	var tiles [32]int // a small application's dense tiles stay on the stack
	s := &searchState{m: m, ix: ix, work: work, mp: mp, seed: seed, tile: tiles[:0]}
	s.init()
	tr.Step2 = append(tr.Step2, s.initialRecord())
	switch m.Cfg.Strategy {
	case BestImprovement:
		s.runBestImprovement(tr)
	default:
		s.runFirstImprovement(tr)
	}
}

// searchState carries the mutable view of the assignment during step 2.
type searchState struct {
	m    *Mapper
	ix   *appIndex
	work *arch.Platform
	mp   *Mapping

	seed *seedMapping // its placements step 2 must not relocate
	tile []int        // mp.Tile by ProcessID, -1 unplaced
	// weight[i] multiplies the Manhattan distance of chans[i]; 1 under
	// HopSum, traffic × hop energy under TrafficWeighted.
	weight []float64
	cost   float64
}

func (s *searchState) init() {
	n := len(s.ix.app.Processes)
	if cap(s.tile) < n {
		s.tile = make([]int, n)
	}
	s.tile = s.tile[:n]
	for i := range s.tile {
		s.tile[i] = -1
	}
	for p, t := range s.mp.Tile {
		s.tile[p] = int(t)
	}
	s.weight = make([]float64, len(s.ix.chans))
	params := s.m.Cfg.energyParams()
	for i, c := range s.ix.chans {
		switch s.m.Cfg.CommCost {
		case TrafficWeighted:
			s.weight[i] = float64(c.BytesPerPeriod()) * params.HopPerByte
		default:
			s.weight[i] = 1
		}
	}
	s.cost = s.totalCost()
}

// totalCost recomputes the full cost of the current assignment:
// weighted channel distances, plus, under the traffic-weighted model, the
// idle energy of powered tiles in ascending tile ID.
func (s *searchState) totalCost() float64 {
	var total float64
	for i, c := range s.ix.chans {
		total += s.weight[i] * float64(s.channelDist(c, current))
	}
	if s.m.Cfg.CommCost == TrafficWeighted {
		params := s.m.Cfg.energyParams()
		powered := make([]arch.TileID, 0, len(s.ix.procs))
		for _, p := range s.ix.procs {
			powered = append(powered, s.mp.Tile[p.ID])
		}
		slices.Sort(powered)
		for _, tid := range slices.Compact(powered) {
			total += params.IdleEnergy(s.work.Tile(tid))
		}
	}
	return total
}

// override places up to two processes on other tiles than the current
// assignment does, to evaluate a candidate without mutating state: p on pt
// and, for a swap, q on qt. A move has q == noProcess.
type override struct {
	p, q   model.ProcessID
	pt, qt arch.TileID
}

const noProcess model.ProcessID = -1

// current is the override that changes nothing.
var current = override{p: noProcess, q: noProcess}

// channelDist returns the Manhattan distance of a channel under the
// current assignment as the override changes it. Channels with an unplaced
// endpoint contribute nothing.
func (s *searchState) channelDist(c *model.Channel, o override) int {
	src, ok := s.tileOf(c.Src, o)
	if !ok {
		return 0
	}
	dst, ok := s.tileOf(c.Dst, o)
	if !ok {
		return 0
	}
	r := s.work.Routers
	return r[s.work.Tiles[src].Router].Pos.Manhattan(r[s.work.Tiles[dst].Router].Pos)
}

func (s *searchState) tileOf(p model.ProcessID, o override) (arch.TileID, bool) {
	switch p {
	case o.p:
		return o.pt, true
	case o.q:
		return o.qt, true
	}
	t := s.tile[p]
	return arch.TileID(t), t >= 0
}

// candidate is one evaluated reassignment.
type candidate struct {
	kind  MoveKind
	p     *model.Process
	q     *model.Process // swap partner, nil for moves
	to    arch.TileID    // move target
	delta float64        // cost change (negative improves)
}

// deltaFor evaluates the cost change of a swap by re-pricing only the
// channels incident to the two processes, merging their incident lists so
// the terms add up in channel order: TrafficWeighted terms are not
// integers, and another order could round differently.
func (s *searchState) deltaFor(o override) float64 {
	a, b := s.ix.incident[o.p], s.ix.incident[o.q]
	var delta float64
	for len(a) > 0 || len(b) > 0 {
		var i int32
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			i, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			i, b = b[0], b[1:]
		default: // a channel between the two processes
			i, a, b = a[0], a[1:], b[1:]
		}
		c := s.ix.chans[i]
		delta += s.weight[i] * float64(s.channelDist(c, o)-s.channelDist(c, current))
	}
	if s.m.Cfg.CommCost == TrafficWeighted {
		delta += s.idleDelta(o)
	}
	return delta
}

// stackEnds channels of a moved process stay on the stack, enough for every
// application the benchmark maps; a process with more spills to the heap.
const stackEnds = 10

// movedEnd is one channel of the process a move scan relocates, read once
// per scan: its weight, the router position of its other end's tile, and
// its current length, or -1 if the other end is unplaced.
type movedEnd struct {
	weight float64
	far    arch.Point
	dist   int
}

// movedEnds appends the channels of process p, on tile cur, to ends in
// channel order.
func (s *searchState) movedEnds(p model.ProcessID, cur arch.TileID, ends []movedEnd) []movedEnd {
	r := s.work.Routers
	at := r[s.work.Tiles[cur].Router].Pos
	for _, i := range s.ix.incident[p] {
		other := s.ix.chans[i].Src
		if other == p {
			other = s.ix.chans[i].Dst
		}
		e := movedEnd{weight: s.weight[i], dist: -1}
		if t := s.tile[other]; t >= 0 {
			e.far = r[s.work.Tiles[t].Router].Pos
			e.dist = at.Manhattan(e.far)
		}
		ends = append(ends, e)
	}
	return ends
}

// movePrice evaluates the cost change of the move o from ends, the moved
// process's channels: the terms of a full re-price in channel order, so
// the same float.
func (s *searchState) movePrice(ends []movedEnd, o override) float64 {
	at := s.work.Routers[s.work.Tiles[o.pt].Router].Pos
	var delta float64
	for _, e := range ends {
		d := 0
		if e.dist >= 0 {
			d = at.Manhattan(e.far) - e.dist
		}
		delta += e.weight * float64(d)
	}
	if s.m.Cfg.CommCost == TrafficWeighted {
		delta += s.idleDelta(o)
	}
	return delta
}

// idleDelta prices tiles powered on or off by the candidate (the paper's
// "being able to turn off parts of the system that are not being used").
// A swap leaves both tiles powered and prices to zero; a move powers its
// source tile off when it leaves it empty, and its target on when that
// was empty.
func (s *searchState) idleDelta(o override) float64 {
	if o.q != noProcess {
		return 0
	}
	from, onFrom, onTo := s.tile[o.p], 0, 0 // mappable processes on either tile
	for _, p := range s.ix.procs {
		switch s.tile[p.ID] {
		case from:
			onFrom++
		case int(o.pt):
			onTo++
		}
	}
	params := s.m.Cfg.energyParams()
	var delta float64
	if onFrom == 1 {
		delta -= params.IdleEnergy(s.work.Tiles[from])
	}
	if onTo == 0 {
		delta += params.IdleEnergy(s.work.Tiles[o.pt])
	}
	return delta
}

// bestCandidateFor returns the lowest-delta reassignment of process p —
// "we try to remove it from the tile it is mapped onto and to map it onto
// the best available tile of the same type. Alternatively, we try to swap
// the process with another process mapped to the same tile type." Swap
// partners are restricted to later-declared processes so each unordered
// pair is evaluated once per pass. Reports false if p has no candidates.
// A move is priced from p's channels, read once per scan. Under HopSum a
// tile whose move cannot beat the best so far skips its room check;
// consider keeps only a strictly lower delta, so the answer stands.
// TrafficWeighted's price walks every process, so room goes first.
func (s *searchState) bestCandidateFor(pi int) (best candidate, found bool) {
	p := s.ix.procs[pi]
	if s.seed.locks(p.ID) {
		return best, false
	}
	cur := arch.TileID(s.tile[p.ID])
	im := s.mp.Impl[p.ID]
	curTile := s.work.Tiles[cur]

	consider := func(c candidate) {
		if !found || c.delta < best.delta {
			best, found = c, true
		}
	}

	// Moves to free capacity on tiles of the same type.
	cyc, err := im.CyclesPerPeriod(s.ix.app, p)
	if err != nil {
		return best, false
	}
	ni := s.ix.ni[p.ID]
	var stack [stackEnds]movedEnd
	ends := s.movedEnds(p.ID, cur, stack[:0])
	priceFirst := s.m.Cfg.CommCost == HopSum
	for _, tid := range s.work.TilesOfType(im.TileType) {
		if tid == cur {
			continue
		}
		o, delta := override{p: p.ID, pt: tid, q: noProcess}, 0.0
		if priceFirst {
			if delta = s.movePrice(ends, o); found && delta >= best.delta {
				continue
			}
		}
		t := s.work.Tiles[tid]
		if !canHost(t, im.MemBytes, utilisation(t, cyc, s.ix.app.QoS.PeriodNs)) || !ni.fits(t) {
			continue
		}
		if !priceFirst {
			delta = s.movePrice(ends, o)
		}
		consider(candidate{kind: Move, p: p, to: tid, delta: delta})
	}

	// Swaps with later-declared processes on the same tile type.
	for qi := pi + 1; qi < len(s.ix.procs); qi++ {
		q := s.ix.procs[qi]
		if s.seed.locks(q.ID) {
			continue
		}
		qTile := arch.TileID(s.tile[q.ID])
		if qTile == cur {
			continue
		}
		qIm := s.mp.Impl[q.ID]
		if s.work.Tiles[qTile].Type != curTile.Type || qIm.TileType != im.TileType {
			continue
		}
		if !s.swapFits(p, im, cur, q, qIm, qTile) {
			continue
		}
		delta := s.deltaFor(override{p: p.ID, pt: qTile, q: q.ID, qt: cur})
		consider(candidate{kind: Swap, p: p, q: q, to: qTile, delta: delta})
	}
	return best, found
}

// swapFits checks that each tile can absorb the other process after the
// swap (memory and utilisation with both old reservations removed).
func (s *searchState) swapFits(p *model.Process, pIm *model.Implementation, pTile arch.TileID,
	q *model.Process, qIm *model.Implementation, qTile arch.TileID) bool {
	pc, err := pIm.CyclesPerPeriod(s.ix.app, p)
	if err != nil {
		return false
	}
	qc, err := qIm.CyclesPerPeriod(s.ix.app, q)
	if err != nil {
		return false
	}
	tp := s.work.Tile(pTile)
	tq := s.work.Tile(qTile)
	pUtilAtQ := utilisation(tq, pc, s.ix.app.QoS.PeriodNs)
	qUtilAtP := utilisation(tp, qc, s.ix.app.QoS.PeriodNs)
	pUtilAtP := utilisation(tp, pc, s.ix.app.QoS.PeriodNs)
	qUtilAtQ := utilisation(tq, qc, s.ix.app.QoS.PeriodNs)
	memOKp := tp.ReservedMem-pIm.MemBytes+qIm.MemBytes <= tp.MemBytes
	memOKq := tq.ReservedMem-qIm.MemBytes+pIm.MemBytes <= tq.MemBytes
	utilOKp := tp.ReservedUtil-pUtilAtP+qUtilAtP <= 1.0+utilEps
	utilOKq := tq.ReservedUtil-qUtilAtQ+pUtilAtQ <= 1.0+utilEps
	return memOKp && memOKq && utilOKp && utilOKq
}

// applyCandidate commits a candidate to the mapping and the platform's
// reservation state.
func (s *searchState) applyCandidate(c candidate) {
	relocate := func(p *model.Process, to arch.TileID) {
		im := s.mp.Impl[p.ID]
		from := s.work.Tile(s.mp.Tile[p.ID])
		dst := s.work.Tile(to)
		cyc, _ := im.CyclesPerPeriod(s.ix.app, p)
		from.ReservedMem -= im.MemBytes
		from.ReservedUtil -= utilisation(from, cyc, s.ix.app.QoS.PeriodNs)
		from.Occupants--
		dst.ReservedMem += im.MemBytes
		dst.ReservedUtil += utilisation(dst, cyc, s.ix.app.QoS.PeriodNs)
		dst.Occupants++
		s.mp.Tile[p.ID] = to
		s.tile[p.ID] = int(to)
	}
	switch c.kind {
	case Move:
		relocate(c.p, c.to)
	case Swap:
		pTile := s.mp.Tile[c.p.ID]
		qTile := s.mp.Tile[c.q.ID]
		relocate(c.p, qTile)
		relocate(c.q, pTile)
	}
	s.cost += c.delta
}

// initialRecord is the trace row of step 1's greedy assignment, the one
// row that carries the placement later rows replay their moves onto.
func (s *searchState) initialRecord() Step2Record {
	r := Step2Record{
		Kind:   Initial,
		Procs:  make([]string, len(s.ix.procs)),
		Tiles:  make([]string, len(s.ix.procs)),
		Cost:   s.cost,
		Remark: "Initial (greedy) assignment",
	}
	for i, p := range s.ix.procs {
		r.Procs[i], r.Tiles[i] = p.Name, s.work.Tile(s.mp.Tile[p.ID]).Name
	}
	return r
}

func (s *searchState) record(tr *Trace, iter int, c candidate, accepted bool) {
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
	if c.q != nil {
		rec.ProcB = c.q.Name
		rec.TileB = s.work.Tile(s.mp.Tile[c.q.ID]).Name
	} else {
		rec.TileB = s.work.Tile(c.to).Name
	}
	tr.Step2 = append(tr.Step2, rec)
}

// runFirstImprovement scans processes in declaration order; each process
// contributes its best reassignment as one evaluated iteration, and the
// first strict improvement is applied, restarting the scan. This is the
// discipline under which the paper's Table 2 unfolds row by row.
func (s *searchState) runFirstImprovement(tr *Trace) {
	iter := 0
	for {
		improved := false
		for pi := range s.ix.procs {
			c, ok := s.bestCandidateFor(pi)
			if !ok {
				continue
			}
			iter++
			if iter > maxStep2Iterations {
				tr.Notes = append(tr.Notes, fmt.Sprintf("step 2 stopped at iteration cap %d", maxStep2Iterations))
				return
			}
			// The paper stops step 2 once no reassignment gains more than
			// a minimum; here it is zero: any strict improvement is kept.
			accept := c.delta < 0
			s.record(tr, iter, c, accept)
			if accept {
				s.applyCandidate(c)
				improved = true
				break // restart the scan from the first process
			}
		}
		if !improved {
			tr.Notes = append(tr.Notes, "No further choices")
			return
		}
	}
}

// runBestImprovement applies the globally best improving candidate each
// iteration — the literal reading of "only the best reassignment is
// actually performed every iteration".
func (s *searchState) runBestImprovement(tr *Trace) {
	iter := 0
	for {
		var best candidate
		found := false
		for pi := range s.ix.procs {
			if c, ok := s.bestCandidateFor(pi); ok && (!found || c.delta < best.delta) {
				best, found = c, true
			}
		}
		if !found {
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
			return // the best candidate does not improve: local optimum
		}
		s.applyCandidate(best)
	}
}
