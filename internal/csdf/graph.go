package csdf

import (
	"fmt"
	"slices"
	"strings"
)

// ActorID indexes an actor within its Graph.
type ActorID int

// ChannelID indexes a channel within its Graph.
type ChannelID int

// Actor is one CSDF actor. Its phase count is len(WCET); the rate patterns
// of all channels attached to the actor must have exactly that length.
type Actor struct {
	ID   ActorID
	Name string
	// WCET holds the worst-case execution time of each phase, in the time
	// unit of the graph (the mapper uses nanoseconds).
	WCET Pattern
}

// Phases returns the number of phases in the actor's cycle.
func (a *Actor) Phases() int { return len(a.WCET) }

// Channel is a FIFO connection between two actors.
type Channel struct {
	ID  ChannelID
	Src ActorID
	Dst ActorID
	// Prod[k] tokens are appended when the source actor completes its
	// phase k; Cons[k] tokens are removed when the destination actor
	// starts its phase k.
	Prod Pattern
	Cons Pattern
	// Initial tokens are present before execution starts.
	Initial int64
	// Capacity bounds the channel; 0 means unbounded. A bounded channel
	// exerts back-pressure: the source cannot start a phase unless the
	// tokens it will produce fit.
	Capacity int64
}

// Graph is a CSDF graph under construction or analysis. Use AddActor and
// Connect to build it, then Validate before running analyses.
type Graph struct {
	Name     string
	Actors   []*Actor
	Channels []*Channel

	in  [][]ChannelID // actor -> incoming channels
	out [][]ChannelID // actor -> outgoing channels

	// Room Grow reserves: AddActor and Connect fill it before they
	// allocate one by one.
	actorSlab []Actor
	chanSlab  []Channel
	endSlab   []ChannelID // the first entry of every in and out list
}

// NewGraph returns an empty named graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// Grow reserves room for the given numbers of further actors and
// channels, so that a builder that knows its sizes adds them in a few
// allocations instead of a few per actor and channel.
func (g *Graph) Grow(actors, channels int) {
	g.Actors = slices.Grow(g.Actors, actors)
	g.in = slices.Grow(g.in, actors)
	g.out = slices.Grow(g.out, actors)
	g.Channels = slices.Grow(g.Channels, channels)
	g.actorSlab = make([]Actor, 0, actors)
	g.chanSlab = make([]Channel, 0, channels)
	g.endSlab = slices.Grow(g.endSlab, 2*actors)
}

// next returns the slab's next reserved element, or a fresh one when
// none is left.
func next[T any](slab *[]T) *T {
	n := len(*slab)
	if n == cap(*slab) {
		return new(T)
	}
	*slab = (*slab)[:n+1]
	return &(*slab)[n]
}

// AddActor appends an actor with the given per-phase WCET pattern and
// returns its ID.
func (g *Graph) AddActor(name string, wcet Pattern) ActorID {
	id := ActorID(len(g.Actors))
	a := next(&g.actorSlab)
	*a = Actor{ID: id, Name: name, WCET: wcet}
	g.Actors = append(g.Actors, a)
	g.in = append(g.in, nil)
	g.out = append(g.out, nil)
	return id
}

// Connect adds a channel from src to dst with the given production and
// consumption patterns and initial token count, and returns its ID.
func (g *Graph) Connect(src, dst ActorID, prod, cons Pattern, initial int64) ChannelID {
	id := ChannelID(len(g.Channels))
	c := next(&g.chanSlab)
	*c = Channel{ID: id, Src: src, Dst: dst, Prod: prod, Cons: cons, Initial: initial}
	g.Channels = append(g.Channels, c)
	g.out[src] = g.attach(g.out[src], id)
	g.in[dst] = g.attach(g.in[dst], id)
	return id
}

// attach appends a channel to one of an actor's lists. A list starts as a
// clipped cell of the slab, so one channel per side, as every router
// actor has, costs no allocation. Cells never change once written, so
// the slab may move to a larger array as it grows.
func (g *Graph) attach(ends []ChannelID, id ChannelID) []ChannelID {
	if ends != nil {
		return append(ends, id)
	}
	g.endSlab = append(g.endSlab, id)
	return slices.Clip(g.endSlab[len(g.endSlab)-1:])
}

// Actor returns the actor with the given ID.
func (g *Graph) Actor(id ActorID) *Actor { return g.Actors[id] }

// Channel returns the channel with the given ID.
func (g *Graph) Channel(id ChannelID) *Channel { return g.Channels[id] }

// In returns the IDs of channels entering actor a.
func (g *Graph) In(a ActorID) []ChannelID { return g.in[a] }

// Out returns the IDs of channels leaving actor a.
func (g *Graph) Out(a ActorID) []ChannelID { return g.out[a] }

// Validate checks structural sanity: every actor has at least one phase,
// all rates are non-negative, and every channel's rate patterns match the
// phase counts of its endpoints.
func (g *Graph) Validate() error {
	for _, a := range g.Actors {
		if a.Phases() == 0 {
			return fmt.Errorf("csdf: actor %q has no phases", a.Name)
		}
		for _, w := range a.WCET {
			if w < 0 {
				return fmt.Errorf("csdf: actor %q has negative WCET", a.Name)
			}
		}
	}
	for _, c := range g.Channels {
		src, dst := g.Actors[c.Src], g.Actors[c.Dst]
		if len(c.Prod) != src.Phases() {
			return fmt.Errorf("csdf: channel %d: production pattern has %d phases, source %q has %d",
				c.ID, len(c.Prod), src.Name, src.Phases())
		}
		if len(c.Cons) != dst.Phases() {
			return fmt.Errorf("csdf: channel %d: consumption pattern has %d phases, destination %q has %d",
				c.ID, len(c.Cons), dst.Name, dst.Phases())
		}
		for _, v := range c.Prod {
			if v < 0 {
				return fmt.Errorf("csdf: channel %d has negative production rate", c.ID)
			}
		}
		for _, v := range c.Cons {
			if v < 0 {
				return fmt.Errorf("csdf: channel %d has negative consumption rate", c.ID)
			}
		}
		if c.Prod.Sum() == 0 && c.Cons.Sum() == 0 {
			return fmt.Errorf("csdf: channel %d transfers no tokens", c.ID)
		}
		if c.Initial < 0 {
			return fmt.Errorf("csdf: channel %d has negative initial tokens", c.ID)
		}
		if c.Capacity < 0 {
			return fmt.Errorf("csdf: channel %d has negative capacity", c.ID)
		}
	}
	return nil
}

// String renders the graph topology for debugging and for regenerating the
// paper's Figure 3.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CSDF %q: %d actors, %d channels\n", g.Name, len(g.Actors), len(g.Channels))
	for _, a := range g.Actors {
		fmt.Fprintf(&b, "  actor %-14s wcet=%s\n", a.Name, a.WCET)
	}
	for _, c := range g.Channels {
		cap := "∞"
		if c.Capacity > 0 {
			cap = fmt.Sprintf("%d", c.Capacity)
		}
		fmt.Fprintf(&b, "  %s -%s/%s-> %s (init=%d, cap=%s)\n",
			g.Actors[c.Src].Name, c.Prod, c.Cons, g.Actors[c.Dst].Name, c.Initial, cap)
	}
	return b.String()
}
