package csdf

import "testing"

// hl2LikeGraph approximates the mapped HIPERLAN/2 receiver: multi-phase
// actors with realistic phase counts and a paced source.
func hl2LikeGraph() *Graph {
	g := NewGraph("bench")
	src := g.AddActor("src", Vals(4000))
	pfx := g.AddActor("pfx", Rep(90, 18))
	frq := g.AddActor("frq", Vals(90, 160, 90))
	ofdm := g.AddActor("ofdm", Cat(Rep(5, 64), Vals(850), Rep(5, 52)))
	sink := g.AddActor("sink", Vals(1))
	c1 := g.Connect(src, pfx, Vals(80), Cat(Rep(8, 2), Vals(8, 0).Times(8)), 0)
	c2 := g.Connect(pfx, frq, Cat(Rep(0, 2), Vals(0, 8).Times(8)), Vals(8, 0, 0), 0)
	c3 := g.Connect(frq, ofdm, Vals(0, 0, 8), Cat(Rep(1, 64), Rep(0, 53)), 0)
	c4 := g.Connect(ofdm, sink, Cat(Rep(0, 65), Rep(1, 52)), Vals(52), 0)
	for _, c := range []ChannelID{c1, c2, c3, c4} {
		g.Channel(c).Capacity = 160
	}
	return g
}

func BenchmarkRepetitionVector(b *testing.B) {
	g := hl2LikeGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Repetition(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfTimedExecution(b *testing.B) {
	g := hl2LikeGraph()
	opts := ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: -1, Source: -1}
	share := trackEngines(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := g.Execute(opts)
		if err != nil || r.Deadlocked {
			b.Fatalf("execution failed: %v", err)
		}
	}
	reportInstants(b, share())
}

func BenchmarkBufferSizing(b *testing.B) {
	base := hl2LikeGraph()
	// Unbind the capacities so the sizing has work to do.
	for _, c := range base.Channels {
		c.Capacity = 0
	}
	share := trackEngines(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := BufferSizes(base, BufferOptions{TargetPeriod: 4000})
		if err != nil || !res.Met {
			b.Fatalf("sizing failed: %v", err)
		}
	}
	reportInstants(b, share())
}

// reportInstants reports the completion instants an engine run simulated
// rather than skipped, on average.
func reportInstants(b *testing.B, c engineCounts) {
	if c.runs > 0 {
		b.ReportMetric(float64(c.simulated)/float64(c.runs), "instants/run")
	}
}

func BenchmarkPatternOps(b *testing.B) {
	p := Cat(Rep(1, 64), Vals(170), Rep(1, 52))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Sum()
		_ = p.Max()
		_ = p.At(int64(i))
		_ = p.ScaleDiv(5, 1)
	}
}
