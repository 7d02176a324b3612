package noc

import (
	"container/heap"

	"rtsm/internal/arch"
)

// The search ShortestAvailable replaced, kept as the oracle of the
// differential tests: Dijkstra over unit weights on a container/heap
// ordered by (distance, push sequence), run until the destination is
// popped.

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

func shortestAvailableRef(p *arch.Platform, from, to arch.RouterID, needBps int64) (Path, error) {
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
