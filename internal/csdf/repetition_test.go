package csdf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestRepetitionSDFChain(t *testing.T) {
	// a produces 2/firing, b consumes 3/firing: q = (3, 2).
	g := NewGraph("chain")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	g.Connect(a, b, Vals(2), Vals(3), 0)
	rv, err := Repetition(g)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Cycles[a] != 3 || rv.Cycles[b] != 2 {
		t.Errorf("Cycles = %v, want [3 2]", rv.Cycles)
	}
}

func TestRepetitionCSDFPhases(t *testing.T) {
	// a has 2 phases producing ⟨1,3⟩ (4 per cycle); b has 1 phase
	// consuming 2: q = (1, 2); firings: a 2, b 2.
	g := NewGraph("csdf")
	a := g.AddActor("a", Vals(1, 1))
	b := g.AddActor("b", Vals(1))
	g.Connect(a, b, Vals(1, 3), Vals(2), 0)
	rv, err := Repetition(g)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Cycles[a] != 1 || rv.Cycles[b] != 2 {
		t.Errorf("Cycles = %v, want [1 2]", rv.Cycles)
	}
	if got := rv.Cycles[a] * int64(g.Actors[a].Phases()); got != 2 {
		t.Errorf("firings(a) = %d, want 2", got)
	}
}

func TestRepetitionHiperlanShape(t *testing.T) {
	// The paper's HIPERLAN/2 pipeline on ARM implementations: prefix
	// removal fires once per symbol (80 in), frequency-offset correction
	// 8 times (8 in each), inverse OFDM once (64 in).
	g := NewGraph("hl2")
	src := g.AddActor("ad", Vals(4000))
	pfx := g.AddActor("pfx", Cat(Rep(18, 18)))
	frq := g.AddActor("frq", Vals(18, 32, 18))
	ofdm := g.AddActor("iofdm", Vals(66, 4250, 54))
	g.Connect(src, pfx, Vals(80), Cat(Rep(8, 2), Vals(8, 0).Times(8)), 0)
	g.Connect(pfx, frq, Cat(Rep(0, 2), Vals(0, 8).Times(8)), Vals(8, 0, 0), 0)
	g.Connect(frq, ofdm, Vals(0, 0, 8), Vals(64, 0, 0), 0)
	rv, err := Repetition(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 1, 8, 1}
	for i, w := range want {
		if rv.Cycles[i] != w {
			t.Errorf("Cycles[%d] = %d, want %d", i, rv.Cycles[i], w)
		}
	}
}

func TestRepetitionInconsistent(t *testing.T) {
	// Triangle with incompatible rates has no repetition vector.
	g := NewGraph("tri")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	c := g.AddActor("c", Vals(1))
	g.Connect(a, b, Vals(1), Vals(1), 0)
	g.Connect(b, c, Vals(1), Vals(1), 0)
	g.Connect(a, c, Vals(2), Vals(1), 0) // forces q_c = 2·q_a, conflicts
	if _, err := Repetition(g); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("Repetition = %v, want inconsistency error", err)
	}
}

func TestRepetitionDisconnected(t *testing.T) {
	g := NewGraph("two")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	c := g.AddActor("c", Vals(1))
	d := g.AddActor("d", Vals(1))
	g.Connect(a, b, Vals(2), Vals(1), 0)
	g.Connect(c, d, Vals(1), Vals(5), 0)
	rv, err := Repetition(g)
	if err != nil {
		t.Fatal(err)
	}
	// Components scale independently, then the global GCD normalises.
	if rv.Cycles[a]*2 != rv.Cycles[b] {
		t.Errorf("component 1 unbalanced: %v", rv.Cycles)
	}
	if rv.Cycles[c] != rv.Cycles[d]*5 {
		t.Errorf("component 2 unbalanced: %v", rv.Cycles)
	}
}

func TestRepetitionBalanceProperty(t *testing.T) {
	// Property: on random consistent chains the returned vector balances
	// every channel.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		g := NewGraph("rand")
		ids := make([]ActorID, n)
		for i := range ids {
			ids[i] = g.AddActor("x", Vals(int64(1+rng.Intn(9))))
		}
		for i := 0; i+1 < n; i++ {
			g.Connect(ids[i], ids[i+1],
				Vals(int64(1+rng.Intn(9))), Vals(int64(1+rng.Intn(9))), 0)
		}
		rv, err := Repetition(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, c := range g.Channels {
			if rv.Cycles[c.Src]*c.Prod.Sum() != rv.Cycles[c.Dst]*c.Cons.Sum() {
				t.Fatalf("trial %d: channel %d unbalanced", trial, c.ID)
			}
		}
		// Canonical form: the component-wise GCD is 1.
		gcd := rv.Cycles[0]
		for _, q := range rv.Cycles[1:] {
			for q != 0 {
				gcd, q = q, gcd%q
			}
		}
		if gcd != 1 {
			t.Fatalf("trial %d: vector %v not canonical", trial, rv.Cycles)
		}
	}
}

func TestRepetitionEmptyGraph(t *testing.T) {
	rv, err := Repetition(NewGraph("empty"))
	if err != nil || len(rv.Cycles) != 0 {
		t.Errorf("Repetition(empty) = %v, %v", rv, err)
	}
}

func TestRepetitionScaleInvariance(t *testing.T) {
	// Property: multiplying all rates of a channel by a constant leaves
	// the repetition vector unchanged (the balance equations are
	// homogeneous).
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 100; trial++ {
		p := int64(1 + rng.Intn(9))
		c := int64(1 + rng.Intn(9))
		k := int64(2 + rng.Intn(5))
		g1 := NewGraph("base")
		a1 := g1.AddActor("a", Vals(1))
		b1 := g1.AddActor("b", Vals(1))
		g1.Connect(a1, b1, Vals(p), Vals(c), 0)
		g2 := NewGraph("scaled")
		a2 := g2.AddActor("a", Vals(1))
		b2 := g2.AddActor("b", Vals(1))
		g2.Connect(a2, b2, Vals(p*k), Vals(c*k), 0)
		r1, err := Repetition(g1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Repetition(g2)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles[0] != r2.Cycles[0] || r1.Cycles[1] != r2.Cycles[1] {
			t.Fatalf("scale changed repetition: %v vs %v (p=%d c=%d k=%d)", r1.Cycles, r2.Cycles, p, c, k)
		}
	}
}

func TestRepetitionOutOfRange(t *testing.T) {
	// Each stage multiplies the cycle count by a prime near 2^31; three
	// stages pass 2^63.
	g := NewGraph("huge")
	prev := g.AddActor("a0", Vals(1))
	for i, p := range []int64{2147483647, 2147483629, 2147483587} {
		next := g.AddActor(fmt.Sprintf("a%d", i+1), Vals(1))
		g.Connect(prev, next, Vals(p), Vals(1), 0)
		prev = next
	}
	if _, err := Repetition(g); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Repetition = %v, want an out-of-range error", err)
	}
	if _, err := repetitionRef(g); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("reference Repetition = %v, want an out-of-range error", err)
	}
	// Two stages still fit, and the reversed chain overflows through the
	// common denominator instead of a numerator.
	g = NewGraph("large")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	c := g.AddActor("c", Vals(1))
	g.Connect(a, b, Vals(2147483647), Vals(1), 0)
	g.Connect(b, c, Vals(2147483629), Vals(1), 0)
	rv, err := Repetition(g)
	if err != nil || rv.Cycles[c] != 2147483647*2147483629 {
		t.Errorf("Repetition = %v, %v; want cycles[c] = %d", rv, err, int64(2147483647*2147483629))
	}
	g = NewGraph("huge-denominator")
	prev = g.AddActor("a0", Vals(1))
	for i, p := range []int64{2147483647, 2147483629, 2147483587} {
		next := g.AddActor(fmt.Sprintf("a%d", i+1), Vals(1))
		g.Connect(prev, next, Vals(1), Vals(p), 0)
		prev = next
	}
	if _, err := Repetition(g); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Repetition = %v, want an out-of-range error", err)
	}
}
