package csdf

import (
	"strings"
	"testing"
)

// pipeline builds a simple SDF chain a -> b -> c with unit rates.
func pipeline(t *testing.T) (*Graph, ActorID, ActorID, ActorID) {
	t.Helper()
	g := NewGraph("pipeline")
	a := g.AddActor("a", Vals(10))
	b := g.AddActor("b", Vals(20))
	c := g.AddActor("c", Vals(5))
	g.Connect(a, b, Vals(1), Vals(1), 0)
	g.Connect(b, c, Vals(1), Vals(1), 0)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g, a, b, c
}

func TestGraphTopology(t *testing.T) {
	g, a, b, c := pipeline(t)
	if got := g.Out(a); len(got) != 1 || g.Channel(got[0]).Dst != b {
		t.Errorf("Out(a) = %v", got)
	}
	if got := g.In(c); len(got) != 1 || g.Channel(got[0]).Src != b {
		t.Errorf("In(c) = %v", got)
	}
	if a := g.Actors[b]; a.ID != b || a.Name != "b" {
		t.Errorf("Actors[b] = %d %q", a.ID, a.Name)
	}
}

func TestValidateRejectsRateMismatch(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddActor("a", Vals(1, 1)) // two phases
	b := g.AddActor("b", Vals(1))
	g.Connect(a, b, Vals(1), Vals(1), 0) // prod pattern too short for a
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "production pattern") {
		t.Errorf("Validate = %v, want production pattern mismatch", err)
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	ch := g.Connect(a, b, Vals(1), Vals(1), 0)
	g.Channel(ch).Initial = -1
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted negative initial tokens")
	}
	g.Channel(ch).Initial = 0
	g.Channel(ch).Capacity = -2
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted negative capacity")
	}
}

func TestValidateRejectsEmptyActor(t *testing.T) {
	g := NewGraph("bad")
	g.AddActor("a", Pattern{})
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted actor without phases")
	}
}

func TestValidateRejectsZeroRateChannel(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	g.Connect(a, b, Vals(0), Vals(0), 0)
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted channel that never transfers tokens")
	}
}

func TestGraphString(t *testing.T) {
	g, _, _, _ := pipeline(t)
	s := g.String()
	for _, want := range []string{"pipeline", "actor a", "a -⟨1⟩/⟨1⟩-> b", "cap=∞"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestDOTExport(t *testing.T) {
	g := NewGraph("dot")
	a := g.AddActor("A/D", Vals(4000))
	r := g.AddActor("R(x#0)", Vals(20))
	b := g.AddActor("Pfx", Rep(18, 18))
	g.Connect(a, r, Vals(80), Vals(1), 0)
	ch := g.Connect(r, b, Vals(1), Cat(Rep(8, 2), Vals(8, 0).Times(8)), 2)
	g.Channel(ch).Capacity = 8
	dot := g.DOT()
	for _, want := range []string{
		"digraph \"dot\"",
		"shape=circle", // router actor
		"shape=box",    // process actor
		"cap=8",
		"taillabel=\"•2\"", // initial tokens
		"a0 -> a1",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
