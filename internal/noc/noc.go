// Package noc routes communication channels through the platform's
// Network-on-Chip and manages guaranteed-throughput lane reservations.
// It implements the primitives of the paper's step 3 (§3): capacity-aware
// shortest paths that only use links with enough residual throughput, plus
// dimension-ordered XY routing as a comparison policy.
package noc

import (
	"container/heap"
	"fmt"

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

type pqItem struct {
	router arch.RouterID
	dist   int
	seq    int
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].seq < q[j].seq
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// ShortestAvailable finds a minimum-hop path from one router to another
// using only links with at least needBps of unreserved capacity. Ties are
// broken deterministically by router index, so repeated runs of the
// mapper route identically.
func ShortestAvailable(p *arch.Platform, from, to arch.RouterID, needBps int64) (Path, error) {
	if from == to {
		return Path{Routers: []arch.RouterID{from}}, nil
	}
	const unseen = int(^uint(0) >> 1)
	dist := make([]int, len(p.Routers))
	prevLink := make([]arch.LinkID, len(p.Routers))
	for i := range dist {
		dist[i] = unseen
		prevLink[i] = -1
	}
	dist[from] = 0
	q := &pq{{router: from}}
	seq := 0
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.router == to {
			break
		}
		if it.dist > dist[it.router] {
			continue
		}
		for _, lid := range p.OutLinks(it.router) {
			l := p.Link(lid)
			if l.FreeBps() < needBps {
				continue
			}
			nd := it.dist + 1
			if nd < dist[l.To] {
				dist[l.To] = nd
				prevLink[l.To] = lid
				seq++
				heap.Push(q, pqItem{router: l.To, dist: nd, seq: seq})
			}
		}
	}
	if prevLink[to] == -1 {
		return Path{}, ErrNoPath{From: from, To: to, NeedBps: needBps}
	}
	var links []arch.LinkID
	for r := to; r != from; {
		lid := prevLink[r]
		links = append(links, lid)
		r = p.Link(lid).From
	}
	// Reverse into forward order and collect the router sequence.
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	routers := []arch.RouterID{from}
	for _, lid := range links {
		routers = append(routers, p.Link(lid).To)
	}
	return Path{Routers: routers, Links: links}, nil
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
