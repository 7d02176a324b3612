package csdf

import (
	"fmt"
	"math/bits"
)

// RepetitionVector holds, for each actor, the number of complete phase
// cycles it executes per graph iteration. Firings per iteration is
// Cycles[a] × Phases(a).
type RepetitionVector struct {
	// Cycles[a] is the cycle count of actor a in one graph iteration.
	Cycles []int64
}

// Repetition computes the repetition vector of the graph by solving the
// balance equations
//
//	Cycles[src] × Sum(Prod) = Cycles[dst] × Sum(Cons)
//
// for every channel. It returns an error if the graph is inconsistent (no
// non-trivial solution exists), if some connected component contains an
// actor that never produces or consumes tokens on a channel, or if the
// solution does not fit int64.
func Repetition(g *Graph) (*RepetitionVector, error) {
	n := len(g.Actors)
	if n == 0 {
		return &RepetitionVector{}, nil
	}
	cycles := make([]int64, n)
	if err := solveBalance(g, cycles, make([]int64, 2*n), make([]ActorID, n)); err != nil {
		return nil, err
	}
	return &RepetitionVector{Cycles: cycles}, nil
}

// solveBalance writes the repetition vector of g into cycles. The caller
// supplies the working memory: cycles and queue have one entry per actor,
// scratch has two, all zero.
//
// It propagates the cycle count of each weakly connected component's
// first actor, taken as 1, breadth-first as fractions in lowest terms,
// then scales every fraction by the least common denominator L. That is
// already the smallest integer vector: the first actor of a component is
// 1/1, so the numerators' GCD is 1, and a prime dividing L cannot divide
// every scaled entry because the entry with the largest power of it in
// its denominator has none in its numerator. Every intermediate — a
// reduced numerator or denominator, a partial L — divides an entry of
// that vector, so the int64 arithmetic overflows only when the answer
// itself does not fit.
func solveBalance(g *Graph, cycles, scratch []int64, queue []ActorID) error {
	n := len(g.Actors)
	num, den := scratch[:n], scratch[n:] // den[a] == 0: unvisited
	for start := 0; start < n; start++ {
		if den[start] != 0 {
			continue
		}
		num[start], den[start] = 1, 1
		q := append(queue[:0], ActorID(start))
		for head := 0; head < len(q); head++ {
			a := q[head]
			for _, ends := range [2][]ChannelID{g.out[a], g.in[a]} {
				for _, cid := range ends {
					c := g.Channels[cid]
					ps, cs := c.Prod.Sum(), c.Cons.Sum()
					if ps == 0 || cs == 0 {
						return fmt.Errorf("csdf: channel %d (%s→%s) has a zero total rate; graph cannot iterate",
							c.ID, g.Actors[c.Src].Name, g.Actors[c.Dst].Name)
					}
					// cycles[to] = cycles[a] × mul/div
					to, mul, div := c.Dst, ps, cs
					if c.Src != a {
						to, mul, div = c.Src, cs, ps
					}
					k := gcd64(mul, div)
					mul, div = mul/k, div/k
					k1, k2 := gcd64(num[a], div), gcd64(mul, den[a])
					wantNum, ok1 := mul64(num[a]/k1, mul/k2)
					wantDen, ok2 := mul64(den[a]/k2, div/k1)
					switch {
					case !ok1 || !ok2:
						return rangeError(g, to)
					case den[to] == 0:
						num[to], den[to] = wantNum, wantDen
						q = append(q, to)
					case num[to] != wantNum || den[to] != wantDen:
						return fmt.Errorf("csdf: inconsistent rates at channel %d (%s→%s): graph has no repetition vector",
							c.ID, g.Actors[c.Src].Name, g.Actors[c.Dst].Name)
					}
				}
			}
		}
	}
	lcm := int64(1)
	for a, d := range den {
		var ok bool
		if lcm, ok = mul64(lcm/gcd64(lcm, d), d); !ok {
			return rangeError(g, ActorID(a))
		}
	}
	for a := range cycles {
		var ok bool
		if cycles[a], ok = mul64(num[a], lcm/den[a]); !ok {
			return rangeError(g, ActorID(a))
		}
	}
	// Verify every channel balances over one iteration; propagation
	// guarantees this for trees, verification covers cycles.
	for _, c := range g.Channels {
		if cycles[c.Src]*c.Prod.Sum() != cycles[c.Dst]*c.Cons.Sum() {
			return fmt.Errorf("csdf: channel %d (%s→%s) does not balance",
				c.ID, g.Actors[c.Src].Name, g.Actors[c.Dst].Name)
		}
	}
	return nil
}

func rangeError(g *Graph, a ActorID) error {
	return fmt.Errorf("csdf: repetition count of actor %q out of range", g.Actors[a].Name)
}

// gcd64 returns the greatest common divisor of two positive numbers.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mul64 multiplies two positive numbers and reports whether the product
// fits int64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo <= 1<<63-1
}
