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
}

// NewGraph returns an empty named graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// Grow reserves room for the given numbers of further actors and
// channels, so that a builder that knows its sizes appends without
// reallocating.
func (g *Graph) Grow(actors, channels int) {
	g.Actors = slices.Grow(g.Actors, actors)
	g.in = slices.Grow(g.in, actors)
	g.out = slices.Grow(g.out, actors)
	g.Channels = slices.Grow(g.Channels, channels)
}

// AddActor appends an actor with the given per-phase WCET pattern and
// returns its ID.
func (g *Graph) AddActor(name string, wcet Pattern) ActorID {
	id := ActorID(len(g.Actors))
	g.Actors = append(g.Actors, &Actor{ID: id, Name: name, WCET: wcet})
	g.in = append(g.in, nil)
	g.out = append(g.out, nil)
	return id
}

// Connect adds a channel from src to dst with the given production and
// consumption patterns and initial token count, and returns its ID.
func (g *Graph) Connect(src, dst ActorID, prod, cons Pattern, initial int64) ChannelID {
	id := ChannelID(len(g.Channels))
	g.Channels = append(g.Channels, &Channel{
		ID: id, Src: src, Dst: dst, Prod: prod, Cons: cons, Initial: initial,
	})
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	return id
}

// Actor returns the actor with the given ID.
func (g *Graph) Actor(id ActorID) *Actor { return g.Actors[id] }

// Channel returns the channel with the given ID.
func (g *Graph) Channel(id ChannelID) *Channel { return g.Channels[id] }

// In returns the IDs of channels entering actor a.
func (g *Graph) In(a ActorID) []ChannelID { return g.in[a] }

// Out returns the IDs of channels leaving actor a.
func (g *Graph) Out(a ActorID) []ChannelID { return g.out[a] }

// ActorByName returns the first actor with the given name, or nil.
func (g *Graph) ActorByName(name string) *Actor {
	for _, a := range g.Actors {
		if a.Name == name {
			return a
		}
	}
	return nil
}

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
