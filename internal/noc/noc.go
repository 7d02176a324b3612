// Package noc routes communication channels through the platform's
// Network-on-Chip and manages guaranteed-throughput lane reservations.
// It implements the primitives of the paper's step 3 (§3): capacity-aware
// shortest paths that only use links with enough residual throughput, plus
// dimension-ordered XY routing as a comparison policy.
package noc

import (
	"fmt"
	"sync"

	"rtsm/internal/arch"
)

// Path is one routed connection: the router sequence from the source
// tile's router to the destination tile's router, and the directed links
// traversed between them. A path within a single router (source and
// destination tiles attached to the same router) has no links.
type Path struct {
	Routers []arch.RouterID
	Links   []arch.LinkID
}

// Hops returns the number of router-to-router links the path crosses.
func (p Path) Hops() int { return len(p.Links) }

// ErrNoPath reports that no route with sufficient residual capacity
// exists; the mapping is inadherent and the mapper must refine.
type ErrNoPath struct {
	From, To arch.RouterID
	NeedBps  int64
}

func (e ErrNoPath) Error() string {
	return fmt.Sprintf("noc: no path from router %d to %d with %d B/s free", e.From, e.To, e.NeedBps)
}

// scratch is the working memory of one ShortestAvailable search, pooled so
// that a search allocates only the path it returns. seen is stamped with
// the search's epoch instead of being cleared per search.
type scratch struct {
	epoch uint32
	seen  []uint32        // seen[r] == epoch: this search has discovered r
	prev  []arch.LinkID   // the link r was discovered over
	queue []arch.RouterID // discovered routers in FIFO order; each enters once
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin readies the scratch for a search over n routers.
func (s *scratch) begin(n int) {
	if len(s.seen) < n {
		s.seen, s.prev, s.queue = make([]uint32, n), make([]arch.LinkID, n), make([]arch.RouterID, n)
	}
	if s.epoch++; s.epoch == 0 { // wrapped: old stamps could pass for new
		clear(s.seen)
		s.epoch = 1
	}
}

// ShortestAvailable finds a minimum-hop path from one router to another
// using only links with at least needBps of unreserved capacity. The
// search is breadth-first and stops at the router that discovers to:
// routers are expanded in the order they were discovered and a router
// keeps the link it was first discovered over, so ties are broken
// deterministically by link order and repeated runs of the mapper route
// identically.
func ShortestAvailable(p *arch.Platform, from, to arch.RouterID, needBps int64) (Path, error) {
	if from == to {
		return Path{Routers: []arch.RouterID{from}}, nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.begin(len(p.Routers))
	s.seen[from] = s.epoch
	s.queue[0] = from
	for head, tail := 0, 1; head < tail && s.seen[to] != s.epoch; head++ {
		for _, lid := range p.OutLinks(s.queue[head]) {
			l := p.Link(lid)
			if l.FreeBps() >= needBps && s.seen[l.To] != s.epoch {
				s.seen[l.To], s.prev[l.To] = s.epoch, lid
				s.queue[tail] = l.To
				tail++
			}
		}
	}
	if s.seen[to] != s.epoch {
		return Path{}, ErrNoPath{From: from, To: to, NeedBps: needBps}
	}
	hops := 0
	for r := to; r != from; r = p.Link(s.prev[r]).From {
		hops++
	}
	path := Path{Routers: make([]arch.RouterID, hops+1), Links: make([]arch.LinkID, hops)}
	path.Routers[0] = from
	for r := to; r != from; hops-- {
		lid := s.prev[r]
		path.Links[hops-1], path.Routers[hops] = lid, r
		r = p.Link(lid).From
	}
	return path, nil
}

// XY computes the dimension-ordered route (first along x, then along y)
// and fails if any link on it lacks the required residual capacity. XY is
// the fixed-routing baseline the ablation experiments compare against.
func XY(p *arch.Platform, from, to arch.RouterID, needBps int64) (Path, error) {
	cur := p.Routers[from].Pos
	dst := p.Routers[to].Pos
	routers := []arch.RouterID{from}
	var links []arch.LinkID
	step := func(next arch.Point) error {
		a := p.RouterAt(cur).ID
		b := p.RouterAt(next).ID
		l := p.LinkBetween(a, b)
		if l == nil {
			return fmt.Errorf("noc: mesh has no link %v→%v", cur, next)
		}
		if l.FreeBps() < needBps {
			return ErrNoPath{From: from, To: to, NeedBps: needBps}
		}
		links = append(links, l.ID)
		routers = append(routers, b)
		cur = next
		return nil
	}
	for cur.X != dst.X {
		next := cur
		if dst.X > cur.X {
			next.X++
		} else {
			next.X--
		}
		if err := step(next); err != nil {
			return Path{}, err
		}
	}
	for cur.Y != dst.Y {
		next := cur
		if dst.Y > cur.Y {
			next.Y++
		} else {
			next.Y--
		}
		if err := step(next); err != nil {
			return Path{}, err
		}
	}
	return Path{Routers: routers, Links: links}, nil
}

// Reserve commits bandwidth on every link of the path and on the network
// interfaces of the endpoint tiles. It assumes availability was checked
// during path construction; over-reservation indicates a mapper bug and
// panics.
func Reserve(p *arch.Platform, path Path, srcTile, dstTile arch.TileID, bps int64) {
	for _, lid := range path.Links {
		l := p.Link(lid)
		if l.FreeBps() < bps {
			panic(fmt.Sprintf("noc: over-reserving link %d", lid))
		}
		l.ReservedBps += bps
	}
	if path.Hops() > 0 {
		p.Tile(srcTile).ReservedOutBps += bps
		p.Tile(dstTile).ReservedInBps += bps
	}
}

// Release returns previously reserved bandwidth.
func Release(p *arch.Platform, path Path, srcTile, dstTile arch.TileID, bps int64) {
	for _, lid := range path.Links {
		p.Link(lid).ReservedBps -= bps
	}
	if path.Hops() > 0 {
		p.Tile(srcTile).ReservedOutBps -= bps
		p.Tile(dstTile).ReservedInBps -= bps
	}
}
