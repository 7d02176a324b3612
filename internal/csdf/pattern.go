// Package csdf implements cyclo-static dataflow (CSDF) graphs and the
// analyses the spatial mapper needs: repetition vectors, self-timed
// execution, throughput (iteration period), latency, and buffer-capacity
// computation.
//
// CSDF (Bilsen et al., IEEE TSP 1996) generalises synchronous dataflow:
// every actor cycles through a fixed sequence of phases, and its
// worst-case execution time and the token counts it produces and consumes
// may differ per phase. The paper (Hölzenspies et al., DATE 2008, §1.2 and
// §4.2) specifies every implementation of a process as a CSDF actor and
// verifies QoS constraints on the CSDF graph of the mapped application.
package csdf

import (
	"fmt"
	"strings"
)

// Pattern is a cyclo-static per-phase sequence of values: token rates on a
// channel end, or worst-case execution times of an actor. Index i holds the
// value for phase i; the pattern repeats cyclically.
//
// The paper's ⟨x^n, y^m⟩ notation denotes n phases of value x followed by m
// phases of value y; build such patterns with Rep, Vals and Cat, e.g. the
// Montium inverse-OFDM WCET ⟨1^64, 170, 1^52⟩ is
// Cat(Rep(1, 64), Vals(170), Rep(1, 52)).
type Pattern []int64

// Vals returns a pattern listing each phase value explicitly.
func Vals(vs ...int64) Pattern { return Pattern(vs) }

// Rep returns a pattern of n phases, each with value v (the paper's x^n).
func Rep(v int64, n int) Pattern {
	if n < 0 {
		panic("csdf: negative repetition")
	}
	p := make(Pattern, n)
	for i := range p {
		p[i] = v
	}
	return p
}

// Cat concatenates patterns into one.
func Cat(ps ...Pattern) Pattern {
	var n int
	for _, p := range ps {
		n += len(p)
	}
	out := make(Pattern, 0, n)
	for _, p := range ps {
		out = append(out, p...)
	}
	return out
}

// Times returns the pattern repeated n times (the paper's ⟨a,b⟩^n groups).
func (p Pattern) Times(n int) Pattern {
	if n < 0 {
		panic("csdf: negative repetition")
	}
	out := make(Pattern, 0, len(p)*n)
	for i := 0; i < n; i++ {
		out = append(out, p...)
	}
	return out
}

// Sum returns the total over one full cycle of the pattern.
func (p Pattern) Sum() int64 {
	var s int64
	for _, v := range p {
		s += v
	}
	return s
}

// Max returns the largest phase value, or 0 for an empty pattern.
func (p Pattern) Max() int64 {
	var m int64
	for _, v := range p {
		if v > m {
			m = v
		}
	}
	return m
}

// At returns the value for firing number i (zero-based), cycling through
// the pattern.
func (p Pattern) At(i int64) int64 {
	if len(p) == 0 {
		return 0
	}
	return p[int(i%int64(len(p)))]
}

// ScaleDiv returns a copy with every value multiplied by num and divided by
// den, rounding up. Rounding up keeps worst-case execution times
// conservative when converting between clock domains.
func (p Pattern) ScaleDiv(num, den int64) Pattern {
	if den <= 0 {
		panic("csdf: non-positive denominator")
	}
	out := make(Pattern, len(p))
	for i, v := range p {
		out[i] = (v*num + den - 1) / den
	}
	return out
}

// String renders the pattern in the paper's run-length notation, e.g.
// ⟨1^64, 170, 1^52⟩.
func (p Pattern) String() string {
	if len(p) == 0 {
		return "⟨⟩"
	}
	var b strings.Builder
	b.WriteString("⟨")
	for i := 0; i < len(p); {
		j := i
		for j < len(p) && p[j] == p[i] {
			j++
		}
		if i > 0 {
			b.WriteString(", ")
		}
		if j-i == 1 {
			fmt.Fprintf(&b, "%d", p[i])
		} else {
			fmt.Fprintf(&b, "%d^%d", p[i], j-i)
		}
		i = j
	}
	b.WriteString("⟩")
	return b.String()
}
