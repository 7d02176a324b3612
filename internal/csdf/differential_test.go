package csdf

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The differential tests hold Execute, BufferSizes and Repetition to the
// engines they replaced (ref_test.go): same result, field for field,
// including the veto counts, the deadlock report and the error text.
//
// Graphs are described by a graphSpec, which has a byte encoding so the
// native fuzzer can mutate it. build makes any spec consistent by scaling
// each channel's rates to the spec's repetition counts, so mutated bytes
// still reach the engine instead of dying in Repetition.

type actorSpec struct {
	cycles int64 // repetition count the channel rates are scaled to
	wcet   Pattern
}

type channelSpec struct {
	src, dst          int
	prod, cons        Pattern
	initial, capacity int64
}

type graphSpec struct {
	actors   []actorSpec
	channels []channelSpec
	opts     ExecOptions
}

const (
	specMaxActors   = 8
	specMaxChannels = 12
	specMaxPhases   = 128
	specMaxMembers  = 64
)

// normalise scales the rate patterns so every channel balances under the
// actors' cycle counts. It leaves a balanced channel as it is.
func (s *graphSpec) normalise() {
	for i := range s.channels {
		c := &s.channels[i]
		p := c.prod.Sum() * s.actors[c.src].cycles
		q := c.cons.Sum() * s.actors[c.dst].cycles
		if p == 0 || q == 0 {
			continue
		}
		k := gcd64(p, q)
		c.prod, c.cons = c.prod.ScaleDiv(q/k, 1), c.cons.ScaleDiv(p/k, 1)
	}
}

func (s *graphSpec) build() (*Graph, ExecOptions) {
	s.normalise()
	g := NewGraph("spec")
	for i, a := range s.actors {
		g.AddActor(fmt.Sprintf("a%d", i), a.wcet)
	}
	for _, c := range s.channels {
		id := g.Connect(ActorID(c.src), ActorID(c.dst), c.prod, c.cons, c.initial)
		g.Channel(id).Capacity = c.capacity
	}
	return g, s.opts
}

// specOf describes a consistent graph, so it can seed the fuzzer.
func specOf(g *Graph, opts ExecOptions) graphSpec {
	rv, err := Repetition(g)
	if err != nil {
		panic(err)
	}
	s := graphSpec{opts: opts}
	for i, a := range g.Actors {
		s.actors = append(s.actors, actorSpec{cycles: rv.Cycles[i], wcet: a.WCET})
	}
	for _, c := range g.Channels {
		s.channels = append(s.channels, channelSpec{int(c.Src), int(c.Dst), c.Prod, c.Cons, c.Initial, c.Capacity})
	}
	return s
}

// Encoding: options, actors, channels, exclusive groups. Counts and
// indices are one byte, WCETs, initial tokens and capacities two,
// patterns run-length coded. decodeSpec accepts any byte string: it reads
// zeros past the end, ignores bytes after the groups and clamps counts to
// the spec limits.

type specWriter struct{ b []byte }

func (w *specWriter) u8(v int64)  { w.b = append(w.b, byte(v)) }
func (w *specWriter) u16(v int64) { w.b = append(w.b, byte(v>>8), byte(v)) }
func (w *specWriter) pattern(p Pattern, wide bool) {
	var runs [][2]int64
	for _, v := range p {
		if n := len(runs); n > 0 && runs[n-1][0] == v && runs[n-1][1] < 255 {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]int64{v, 1})
		}
	}
	w.u8(int64(len(runs)))
	for _, r := range runs {
		if wide {
			w.u16(r[0])
		} else {
			w.u8(r[0])
		}
		w.u8(r[1])
	}
}
func (w *specWriter) lists(ls [][]ActorID) {
	w.u8(int64(len(ls)))
	for _, l := range ls {
		w.u8(int64(len(l)))
		for _, a := range l {
			w.u8(int64(a))
		}
	}
}

func (s *graphSpec) encode() []byte {
	var w specWriter
	w.u8(int64(s.opts.WarmupIterations))
	w.u8(int64(s.opts.MeasureIterations))
	w.u8(int64(s.opts.Observe)) // -1 encodes as 255
	w.u8(int64(s.opts.Source))
	w.u8(int64(len(s.actors)))
	for _, a := range s.actors {
		w.u8(a.cycles)
		w.pattern(a.wcet, true)
	}
	w.u8(int64(len(s.channels)))
	for _, c := range s.channels {
		w.u8(int64(c.src))
		w.u8(int64(c.dst))
		w.pattern(c.prod, false)
		w.pattern(c.cons, false)
		w.u16(c.initial)
		w.u16(c.capacity)
	}
	w.lists(s.opts.ExclusiveGroups)
	return w.b
}

type specReader struct{ b []byte }

func (r *specReader) u8() int64 {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int64(v)
}
func (r *specReader) u16() int64 { return r.u8()<<8 | r.u8() }

// pattern reads a run-length coded pattern. With phases < 0 the pattern
// sets its own length; otherwise it is cut or repeated to phases entries.
func (r *specReader) pattern(wide bool, phases int) Pattern {
	var p Pattern
	for runs := r.u8(); runs > 0; runs-- {
		v := r.u8()
		if wide {
			v = v<<8 | r.u8()
		}
		for n := r.u8(); n > 0 && len(p) < specMaxPhases; n-- {
			p = append(p, v)
		}
	}
	if phases < 0 || len(p) == phases {
		return p
	}
	fit := make(Pattern, phases)
	for i := range fit {
		if len(p) > 0 {
			fit[i] = p[i%len(p)]
		}
	}
	return fit
}
func (r *specReader) lists(actors int) [][]ActorID {
	var ls [][]ActorID
	for n := min(r.u8(), specMaxActors); n > 0; n-- {
		l := []ActorID{}
		for m := min(r.u8(), specMaxMembers); m > 0; m-- {
			if a := r.u8(); actors > 0 {
				l = append(l, ActorID(a%int64(actors)))
			}
		}
		ls = append(ls, l)
	}
	return ls
}

func decodeSpec(data []byte) graphSpec {
	r := specReader{data}
	var s graphSpec
	s.opts.WarmupIterations = int(r.u8() % 16)
	s.opts.MeasureIterations = int(r.u8() % 16)
	observe, source := r.u8(), r.u8()
	n := int(min(r.u8(), specMaxActors))
	index := func(v int64) ActorID {
		if v == 255 || n == 0 {
			return -1
		}
		return ActorID(v % int64(n))
	}
	s.opts.Observe, s.opts.Source = index(observe), index(source)
	for i := 0; i < n; i++ {
		s.actors = append(s.actors, actorSpec{cycles: 1 + (r.u8()+7)%8, wcet: r.pattern(true, -1)})
	}
	for m := min(r.u8(), specMaxChannels); m > 0 && n > 0; m-- {
		c := channelSpec{src: int(r.u8()) % n, dst: int(r.u8()) % n}
		c.prod = r.pattern(false, len(s.actors[c.src].wcet))
		c.cons = r.pattern(false, len(s.actors[c.dst].wcet))
		c.initial, c.capacity = r.u16(), r.u16()
		s.channels = append(s.channels, c)
	}
	s.opts.ExclusiveGroups = r.lists(n)
	return s
}

func TestSpecEncodingRoundTrips(t *testing.T) {
	want := hl2LikeGraph()
	opts := ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: -1, Source: 0,
		ExclusiveGroups: [][]ActorID{{1, 2}, {3, 4}}}
	spec := specOf(want, opts)
	decoded := decodeSpec(spec.encode())
	got, gotOpts := decoded.build()
	got.Name = want.Name
	for i, a := range got.Actors {
		a.Name = want.Actors[i].Name
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("graph changed in the round trip:\n%v\nwant\n%v", got, want)
	}
	if !reflect.DeepEqual(gotOpts, opts) {
		t.Errorf("options changed in the round trip: %+v, want %+v", gotOpts, opts)
	}
}

// randomSpec draws a small graph with everything the firing rule reacts
// to: multi-phase actors, zero-WCET and zero-rate phases, forward edges,
// feedback edges that carry initial tokens, self-loops, and capacities
// from unbounded through ample down to deadlocking.
func randomSpec(rng *rand.Rand) graphSpec {
	var s graphSpec
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		wcet := make(Pattern, 1+rng.Intn(4))
		for k := range wcet {
			if rng.Intn(4) > 0 {
				wcet[k] = int64(1 + rng.Intn(20))
			}
		}
		s.actors = append(s.actors, actorSpec{cycles: int64(1 + rng.Intn(3)), wcet: wcet})
	}
	rates := func(a int) Pattern {
		p := make(Pattern, len(s.actors[a].wcet))
		for k := range p {
			if rng.Intn(3) > 0 {
				p[k] = int64(1 + rng.Intn(4))
			}
		}
		p[rng.Intn(len(p))] = int64(1 + rng.Intn(4)) // never all zero
		return p
	}
	connect := func(src, dst int) {
		s.channels = append(s.channels, channelSpec{src: src, dst: dst, prod: rates(src), cons: rates(dst)})
	}
	for i := 1; i < n; i++ {
		connect(rng.Intn(i), i) // every actor reachable from actor 0
	}
	for extra := rng.Intn(3); extra > 0 && n > 1; extra-- {
		src := rng.Intn(n - 1)
		connect(src, src+1+rng.Intn(n-1-src))
	}
	forward := len(s.channels)
	for back := rng.Intn(3); back > 0; back-- {
		dst := rng.Intn(n)
		connect(dst+rng.Intn(n-dst), dst) // src >= dst: feedback edge or self-loop
	}
	s.normalise()
	for i := range s.channels {
		c := &s.channels[i]
		burst := c.prod.Max() + c.cons.Max()
		if i >= forward {
			// One iteration's worth of tokens keeps a cycle live; less
			// usually deadlocks it.
			c.initial = c.prod.Sum() * s.actors[c.src].cycles * int64(rng.Intn(3)) / 2
		}
		switch rng.Intn(4) {
		case 0: // unbounded
		case 1:
			c.capacity = c.initial + burst*int64(2+rng.Intn(3))
		case 2:
			c.capacity = c.initial + burst
		case 3:
			c.capacity = 1 + rng.Int63n(burst)
		}
	}
	return s
}

// optionShapes returns the ways of calling Execute the tests cover for a
// graph of n actors firing perIter times per iteration.
func optionShapes(rng *rand.Rand, g *Graph) []ExecOptions {
	n := len(g.Actors)
	explicit := ExecOptions{WarmupIterations: 1 + rng.Intn(3), MeasureIterations: 1 + rng.Intn(4), Observe: -1, Source: -1}
	shapes := []ExecOptions{
		{}, // everything defaulted
		explicit,
		{WarmupIterations: 2, MeasureIterations: 3, Observe: ActorID(rng.Intn(n)), Source: ActorID(rng.Intn(n))},
		{MeasureIterations: 2, Observe: ActorID(rng.Intn(n)), Source: -1},
		{WarmupIterations: 2, MeasureIterations: 2, Observe: -1, Source: -1, MaxEvents: 1 + rng.Intn(6)},
	}
	// Put each actor in the first group with chance 1/6, in the second
	// with chance 1/6, or in neither; the last shape defaults everything
	// but its group.
	var groups [2][]ActorID
	for a := 0; a < n; a++ {
		if k := rng.Intn(6); k < 2 {
			groups[k] = append(groups[k], ActorID(a))
		}
	}
	grouped := explicit
	grouped.ExclusiveGroups = groups[:]
	return append(shapes, grouped, ExecOptions{ExclusiveGroups: groups[:1]})
}

func describe(g *Graph, opts ExecOptions) string {
	return fmt.Sprintf("%v\noptions %+v", g, opts)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkExecute fails the test unless Execute and the reference agree on
// the input. It returns Execute's result, nil if both returned an error.
func checkExecute(t *testing.T, g *Graph, opts ExecOptions) *ExecResult {
	t.Helper()
	want, wantErr := executeRef(g, opts)
	got, gotErr := g.Execute(opts)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Execute error %q, reference %q\n%s", errText(gotErr), errText(wantErr), describe(g, opts))
	}
	if !sameResult(got, want) {
		t.Fatalf("Execute = %+v\nreference %+v\n%s", got, want, describe(g, opts))
	}
	return got
}

// sameResult is reflect.DeepEqual, except that two NaN periods (a run
// that completed a single measured iteration divides 0 by 0) are equal.
func sameResult(a, b *ExecResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	if math.IsNaN(x.Period) && math.IsNaN(y.Period) {
		x.Period, y.Period = 0, 0
	}
	return reflect.DeepEqual(x, y)
}

// trials cuts the number of random graphs under -short.
func trials(full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

func TestExecuteDifferential(t *testing.T) {
	share := trackEngines(t)
	rng := rand.New(rand.NewSource(20080310))
	deadlocks, runs := 0, 0
	for trial := trials(1500); trial > 0; trial-- {
		spec := randomSpec(rng)
		g, _ := spec.build()
		for _, opts := range optionShapes(rng, g) {
			if r := checkExecute(t, g, opts); r != nil {
				runs++
				if r.Deadlocked {
					deadlocks++
				}
			}
		}
	}
	// The generator has to keep producing both outcomes for the
	// comparison to mean anything.
	if deadlocks < runs/10 || deadlocks > runs*9/10 {
		t.Errorf("%d of %d runs deadlocked; the generator has drifted", deadlocks, runs)
	}
	requireForwarded(t, share, 5)
}

// requireForwarded fails the test unless at least percent of the engine
// runs it caused skipped cycles: the reference can only vouch for the
// fast-forward on runs that take it.
func requireForwarded(t *testing.T, share func() engineCounts, percent int64) {
	t.Helper()
	c := share()
	t.Logf("%d of %d engine runs skipped at least one cycle, %d from a restored boundary", c.forwarded, c.runs, c.restored)
	if c.forwarded*100 < c.runs*percent {
		t.Errorf("%d of %d engine runs skipped cycles, want at least %d%%", c.forwarded, c.runs, percent)
	}
}

func TestExecuteDifferentialEdgeCases(t *testing.T) {
	empty := NewGraph("empty")
	checkExecute(t, empty, ExecOptions{})
	checkExecute(t, hl2LikeGraph(), ExecOptions{})

	// Zero-WCET actors fire repeatedly within one instant, with several
	// firings in flight.
	g := NewGraph("instant")
	a := g.AddActor("a", Vals(0, 0, 3))
	b := g.AddActor("b", Vals(0))
	g.Connect(a, b, Vals(2, 0, 1), Vals(1), 0)
	g.Connect(b, a, Vals(1), Vals(1, 1, 1), 3)
	checkExecute(t, g, ExecOptions{})

	// Inconsistent rates fail in Repetition, with the same message.
	bad := NewGraph("bad")
	x := bad.AddActor("x", Vals(1))
	y := bad.AddActor("y", Vals(1))
	bad.Connect(x, y, Vals(1), Vals(1), 0)
	bad.Connect(x, y, Vals(2), Vals(1), 0)
	checkExecute(t, bad, ExecOptions{})
}

func TestRepetitionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := trials(2000); trial > 0; trial-- {
		spec := randomSpec(rng)
		if rng.Intn(4) == 0 && len(spec.channels) > 0 {
			// Unbalance one channel: mostly inconsistent, sometimes not.
			c := &spec.channels[rng.Intn(len(spec.channels))]
			c.prod = c.prod.ScaleDiv(int64(2+rng.Intn(2)), 1)
			spec.actors = append(spec.actors, actorSpec{cycles: 1, wcet: Vals(1)}) // and a second component
		}
		g := NewGraph("rep")
		for _, a := range spec.actors {
			g.AddActor("x", a.wcet)
		}
		for _, c := range spec.channels {
			g.Connect(ActorID(c.src), ActorID(c.dst), c.prod, c.cons, 0)
		}
		want, wantErr := repetitionRef(g)
		got, gotErr := Repetition(g)
		if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Repetition = %v, %v; reference %v, %v\n%v", got, gotErr, want, wantErr, g)
		}
	}
}

func TestBufferSizesDifferential(t *testing.T) {
	share := trackEngines(t)
	rng := rand.New(rand.NewSource(1996))
	met, sized := 0, 0
	for trial := trials(600); trial > 0; trial-- {
		spec := randomSpec(rng)
		g, _ := spec.build()
		for _, c := range g.Channels {
			if rng.Intn(3) > 0 {
				c.Capacity = 0 // leave it to BufferSizes
			}
		}
		// Targets around what the graph can do: the unbounded period,
		// somewhat looser, unreachably tight, and none.
		target := 0.0
		if r, err := executeRef(g, ExecOptions{}); err == nil && !r.Deadlocked {
			target = r.Period * []float64{0, 0.5, 1, 1, 1.25, 2}[rng.Intn(6)]
		}
		// Each graph is sized under a drawn option shape and under the
		// horizon step 4 uses, whose runs mostly settle and skip cycles.
		for _, exec := range []ExecOptions{optionShapes(rng, g)[rng.Intn(4)], DefaultExecOptions()} {
			opts := BufferOptions{TargetPeriod: target, Exec: exec, MaxRounds: rng.Intn(3) * 20}
			want, wantErr := bufferSizesRef(g, opts)
			got, gotErr := BufferSizes(g, opts)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("BufferSizes error %q, reference %q\n%s\ntarget %v", errText(gotErr), errText(wantErr), describe(g, exec), target)
			}
			if got == nil {
				continue // both failed, with the same error
			}
			if !reflect.DeepEqual(got.Capacities, want.Capacities) || !sameResult(got.Exec, want.Exec) || got.Met != want.Met {
				t.Fatalf("BufferSizes = %+v (exec %+v)\nreference %+v (exec %+v)\n%s\ntarget %v",
					got, got.Exec, want, want.Exec, describe(g, exec), target)
			}
			sized++
			if got.Met {
				met++
			}
		}
	}
	if met < sized/10 || met > sized*9/10 {
		t.Errorf("%d of %d sizings met their target; the generator has drifted", met, sized)
	}
	requireForwarded(t, share, 15)
}

// FuzzExecuteDifferential lets the fuzzer mutate encoded graphs and
// options, starting from the HIPERLAN/2-like benchmark graph.
func FuzzExecuteDifferential(f *testing.F) {
	hl2 := specOf(hl2LikeGraph(), DefaultExecOptions())
	f.Add(hl2.encode())
	hl2.opts.ExclusiveGroups = [][]ActorID{{1, 2}, {3, 4}}
	f.Add(hl2.encode())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		spec := randomSpec(rng)
		g, _ := spec.build()
		spec.opts = optionShapes(rng, g)[5+i%2]
		f.Add(spec.encode())
	}
	// Graphs that settle at the step-4 horizon, so mutation starts from
	// runs that skip cycles; the routed one confirms its cycle at the
	// source and skips from a restored boundary.
	for _, g := range settlingGraphs() {
		settling := specOf(g, DefaultExecOptions())
		f.Add(settling.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := decodeSpec(data)
		g, opts := spec.build()
		checkExecute(t, g, opts)
	})
}
