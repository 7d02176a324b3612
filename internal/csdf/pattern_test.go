package csdf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPatternBuilders(t *testing.T) {
	p := Cat(Rep(8, 2), Vals(8, 0).Times(8))
	if got, want := len(p), 18; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	if got, want := p.Sum(), int64(80); got != want {
		t.Errorf("Sum = %d, want %d", got, want)
	}
	if got, want := p.Max(), int64(8); got != want {
		t.Errorf("Max = %d, want %d", got, want)
	}
	for i, want := range []int64{8, 8, 8, 0, 8, 0} {
		if got := p.At(int64(i)); got != want {
			t.Errorf("At(%d) = %d, want %d", i, got, want)
		}
	}
	// Cyclic access wraps around the 18-phase cycle.
	if got, want := p.At(18), p.At(0); got != want {
		t.Errorf("At(18) = %d, want %d", got, want)
	}
}

func TestPatternString(t *testing.T) {
	cases := []struct {
		p    Pattern
		want string
	}{
		{Pattern{}, "⟨⟩"},
		{Vals(18, 32, 18), "⟨18, 32, 18⟩"},
		{Rep(18, 18), "⟨18^18⟩"},
		{Cat(Rep(1, 64), Vals(170), Rep(1, 52)), "⟨1^64, 170, 1^52⟩"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String(%v) = %s, want %s", []int64(c.p), got, c.want)
		}
	}
}

func TestPatternScale(t *testing.T) {
	p := Vals(1, 2, 3)
	if got := p.ScaleDiv(10, 1); got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("ScaleDiv(10, 1) = %v", got)
	}
	// ScaleDiv rounds up: 3 cycles at num=10/den=3 → ceil(30/3)=10.
	q := Vals(1).ScaleDiv(10, 3)
	if q[0] != 4 { // ceil(10/3)
		t.Errorf("ScaleDiv = %v, want [4]", q)
	}
	// Scaling must not mutate the receiver.
	if p[0] != 1 {
		t.Error("ScaleDiv mutated receiver")
	}
}

func TestPatternScaleDivConservative(t *testing.T) {
	// Property: ScaleDiv never rounds below the exact quotient.
	f := func(v uint16, num, den uint8) bool {
		if den == 0 {
			return true
		}
		p := Vals(int64(v)).ScaleDiv(int64(num), int64(den))
		exact := float64(v) * float64(num) / float64(den)
		return float64(p[0]) >= exact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternTimesZero(t *testing.T) {
	if got := Vals(1, 2).Times(0); len(got) != 0 {
		t.Errorf("Times(0) = %v, want empty", got)
	}
}

func TestPatternSumMatchesAtWalk(t *testing.T) {
	// Property: walking one full cycle with At sums to Sum.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		p := make(Pattern, n)
		for i := range p {
			p[i] = int64(rng.Intn(100))
		}
		var s int64
		for i := int64(0); i < int64(n); i++ {
			s += p.At(i)
		}
		if s != p.Sum() {
			t.Fatalf("walk sum %d != Sum %d for %v", s, p.Sum(), p)
		}
	}
}
