package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
)

// Shape selects the topology of a synthetic streaming application. The
// paper's §5 calls for "synthetic cases based on the class of applications
// that can reasonably be expected for MPSOCs": linear DSP pipelines,
// fork-join parallel stages, and irregular layered task graphs.
type Shape string

const (
	// ShapeChain is a linear pipeline src → p1 → … → pn → sink, the shape
	// of baseband receivers like the HIPERLAN/2 case.
	ShapeChain Shape = "chain"
	// ShapeForkJoin is src → split → k parallel branches → join → sink,
	// the shape of block-parallel codecs.
	ShapeForkJoin Shape = "forkjoin"
	// ShapeLayered is a random DAG organised in layers with every node
	// connected forward, the irregular case.
	ShapeLayered Shape = "layered"
)

// SynthOptions parameterises the generator. Identical options produce the
// identical application and library: everything derives from Seed.
type SynthOptions struct {
	Shape     Shape
	Processes int // number of mappable processes (≥1)
	Seed      int64
	PeriodNs  int64 // 0 = the HIPERLAN/2 symbol period
	// MaxUtil bounds each generated implementation's utilisation of a
	// 200 MHz tile (0 = 0.35), keeping instances feasible by
	// construction.
	MaxUtil float64
	// SrcTile and SinkTile name the tiles the application's stream
	// endpoints are pinned to (empty = "SRC0" / "SINK0", the endpoints
	// SyntheticPlatform provides). Region-spread scenarios pin arrivals
	// to the per-block endpoints of SyntheticRegionPlatform instead, so
	// admissions start and end in different corners of the mesh.
	SrcTile  string
	SinkTile string
	// Priority tags the generated application's admission QoS class
	// (app.QoS.Priority). It changes nothing about the generated
	// structure — the mapper is priority-blind — only how the manager
	// queues the arrival and whether it may preempt when the mesh is
	// full. Zero is BestEffort, the pre-priority behaviour.
	Priority model.Priority
}

// synthTypes is the tile-type pool synthetic implementations draw from.
var synthTypes = []arch.TileType{arch.TypeARM, arch.TypeMontium, arch.TypeDSP}

// Synthetic generates a random streaming application plus a matching
// implementation library. The application's source and sink are pinned to
// the tiles named "SRC0" and "SINK0", which SyntheticPlatform provides.
func Synthetic(opts SynthOptions) (*model.Application, *model.Library) {
	if opts.Processes < 1 {
		panic("workload: synthetic application needs at least one process")
	}
	if opts.PeriodNs == 0 {
		opts.PeriodNs = Hiperlan2SymbolPeriodNs
	}
	if opts.MaxUtil == 0 {
		opts.MaxUtil = 0.35
	}
	if opts.Shape == "" {
		opts.Shape = ShapeChain
	}
	if opts.SrcTile == "" {
		opts.SrcTile = "SRC0"
	}
	if opts.SinkTile == "" {
		opts.SinkTile = "SINK0"
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	app := model.NewApplication(
		fmt.Sprintf("synthetic-%s-%d-seed%d", opts.Shape, opts.Processes, opts.Seed),
		model.QoS{PeriodNs: opts.PeriodNs, Priority: opts.Priority})
	src := app.AddPinnedProcess("src", opts.SrcTile)
	sink := app.AddPinnedProcess("sink", opts.SinkTile)
	procs := make([]*model.Process, opts.Processes)
	for i := range procs {
		procs[i] = app.AddProcess(fmt.Sprintf("p%d", i))
	}
	tokens := func() int64 { return int64(16 + rng.Intn(113)) }

	type port struct{ in, out int }
	ports := make(map[model.ProcessID]*port)
	connect := func(a, b *model.Process) {
		pa := ports[a.ID]
		if pa == nil {
			pa = &port{}
			ports[a.ID] = pa
		}
		pb := ports[b.ID]
		if pb == nil {
			pb = &port{}
			ports[b.ID] = pb
		}
		app.ConnectPorts(a, fmt.Sprintf("out%d", pa.out), b, fmt.Sprintf("in%d", pb.in), tokens(), 4)
		pa.out++
		pb.in++
	}

	switch opts.Shape {
	case ShapeForkJoin:
		n := opts.Processes
		if n < 3 {
			// Too small to fork: fall back to a chain.
			chainUp(connect, src, sink, procs)
			break
		}
		split := procs[0]
		join := procs[n-1]
		connect(src, split)
		for _, p := range procs[1 : n-1] {
			connect(split, p)
			connect(p, join)
		}
		connect(join, sink)
	case ShapeLayered:
		n := opts.Processes
		if n < 3 {
			chainUp(connect, src, sink, procs)
			break
		}
		// Partition processes into layers of random width 1..3.
		var layers [][]*model.Process
		for i := 0; i < n; {
			w := 1 + rng.Intn(3)
			if i+w > n {
				w = n - i
			}
			layers = append(layers, procs[i:i+w])
			i += w
		}
		for _, p := range layers[0] {
			connect(src, p)
		}
		for li := 1; li < len(layers); li++ {
			prev, cur := layers[li-1], layers[li]
			// Every node gets at least one forward edge in and out.
			for _, p := range cur {
				connect(prev[rng.Intn(len(prev))], p)
			}
			for _, q := range prev {
				if ports[q.ID].out == 0 {
					connect(q, cur[rng.Intn(len(cur))])
				}
			}
		}
		for _, p := range layers[len(layers)-1] {
			connect(p, sink)
		}
		// Drain any interior node that still lacks an outgoing edge.
		for _, p := range procs {
			if ports[p.ID].out == 0 {
				connect(p, sink)
			}
		}
	default: // ShapeChain
		chainUp(connect, src, sink, procs)
	}

	lib := model.NewLibrary()
	for _, p := range procs {
		addSyntheticImpls(lib, app, p, rng, opts)
	}
	return app, lib
}

func chainUp(connect func(a, b *model.Process), src, sink *model.Process, procs []*model.Process) {
	prev := src
	for _, p := range procs {
		connect(prev, p)
		prev = p
	}
	connect(prev, sink)
}

// addSyntheticImpls gives the process one implementation per tile type in
// a random non-empty subset of the pool. Phase structure is
// read-inputs / compute / write-outputs; rates match the process's
// channels exactly (each channel transfers its full token count in its
// dedicated phase), so every process fires once per period.
func addSyntheticImpls(lib *model.Library, app *model.Application, p *model.Process, rng *rand.Rand, opts SynthOptions) {
	var ins, outs []*model.Channel
	for _, c := range app.ChannelsOf(p.ID) {
		if c.Dst == p.ID {
			ins = append(ins, c)
		} else {
			outs = append(outs, c)
		}
	}
	phases := len(ins) + 1 + len(outs)

	// Cycle budget at the 200 MHz reference clock.
	budget := opts.PeriodNs * 200 / 1000
	maxCycles := int64(float64(budget) * opts.MaxUtil)
	if maxCycles < int64(phases)+1 {
		maxCycles = int64(phases) + 1
	}
	baseCompute := int64(phases) + rng.Int63n(maxCycles-int64(phases))

	n := 1 + rng.Intn(len(synthTypes))
	order := rng.Perm(len(synthTypes))
	for k := 0; k < n; k++ {
		tt := synthTypes[order[k]]
		// Type efficiency: the Montium is fastest and cheapest, the ARM
		// slowest and most energy-hungry, mirroring Table 1's spread.
		var speed, joule float64
		switch tt {
		case arch.TypeMontium:
			speed, joule = 0.5, 1.0
		case arch.TypeDSP:
			speed, joule = 0.75, 1.6
		default:
			speed, joule = 1.0, 2.2
		}
		compute := int64(float64(baseCompute)*speed) + 1
		if compute > maxCycles {
			compute = maxCycles
		}
		wcet := make(csdf.Pattern, phases)
		in := make(map[string]csdf.Pattern, len(ins))
		out := make(map[string]csdf.Pattern, len(outs))
		for i, c := range ins {
			wcet[i] = 1 + c.TokensPerPeriod/8
			pat := make(csdf.Pattern, phases)
			pat[i] = c.TokensPerPeriod
			in[c.DstPort] = pat
		}
		wcet[len(ins)] = compute
		for j, c := range outs {
			idx := len(ins) + 1 + j
			wcet[idx] = 1 + c.TokensPerPeriod/8
			pat := make(csdf.Pattern, phases)
			pat[idx] = c.TokensPerPeriod
			out[c.SrcPort] = pat
		}
		lib.Add(&model.Implementation{
			Process:         p.Name,
			TileType:        tt,
			WCET:            wcet,
			In:              in,
			Out:             out,
			EnergyPerPeriod: float64(compute) * joule * 0.5,
			MemBytes:        1024 + rng.Int63n(4096),
		})
	}
}

// SyntheticPlatform builds a w×h mesh with one processing tile per router
// (types cycling through a seeded shuffle of ARM, Montium and DSP), plus
// the pinned stream endpoints SRC0 (bottom-left router) and SINK0
// (top-right router). Montium tiles hold one kernel at a time.
func SyntheticPlatform(w, h int, seed int64) *arch.Platform {
	p := SyntheticPlatformWithoutEndpoints(w, h, seed)
	p.AttachTile(arch.TileSpec{
		Name: "SRC0", Type: arch.TypeSource, At: arch.Pt(0, h-1),
		ClockHz: 200_000_000, MemBytes: 64 << 10, NICapBps: 800_000_000,
	})
	p.AttachTile(arch.TileSpec{
		Name: "SINK0", Type: arch.TypeSink, At: arch.Pt(w-1, 0),
		ClockHz: 200_000_000, MemBytes: 64 << 10, NICapBps: 800_000_000,
	})
	return p
}

// SyntheticRegionPlatform builds the same mesh as SyntheticPlatform with
// one stream-source and one stream-sink tile per square block of
// regionSize×regionSize routers, blocks numbered row-major and clipped at
// the mesh edge: "SRC<r>" at block r's bottom-left router and "SINK<r>" at
// its top-right. An application pinned to block r's endpoints
// (SynthOptions.SrcTile / SinkTile) starts and ends inside that block.
// regionSize ≤ 0 or covering the whole mesh yields one block (endpoints
// then match SyntheticPlatform's SRC0/SINK0 placement).
func SyntheticRegionPlatform(w, h int, seed int64, regionSize int) *arch.Platform {
	p := SyntheticPlatformWithoutEndpoints(w, h, seed)
	if regionSize <= 0 {
		regionSize = max(w, h)
	}
	r := 0
	for y0 := 0; y0 < h; y0 += regionSize {
		for x0 := 0; x0 < w; x0 += regionSize {
			x1, y1 := min(x0+regionSize, w)-1, min(y0+regionSize, h)-1
			p.AttachTile(arch.TileSpec{
				Name: "SRC" + strconv.Itoa(r), Type: arch.TypeSource, At: arch.Pt(x0, y1),
				ClockHz: 200_000_000, MemBytes: 64 << 10, NICapBps: 800_000_000,
			})
			p.AttachTile(arch.TileSpec{
				Name: "SINK" + strconv.Itoa(r), Type: arch.TypeSink, At: arch.Pt(x1, y0),
				ClockHz: 200_000_000, MemBytes: 64 << 10, NICapBps: 800_000_000,
			})
			r++
		}
	}
	return p
}

// SyntheticPlatformWithoutEndpoints is SyntheticPlatform minus the
// SRC0/SINK0 tiles, for callers that attach their own stream endpoints.
// The processing-tile layout is identical for identical seeds.
func SyntheticPlatformWithoutEndpoints(w, h int, seed int64) *arch.Platform {
	rng := rand.New(rand.NewSource(seed))
	p := arch.NewMesh(fmt.Sprintf("synthetic-%dx%d-seed%d", w, h, seed), w, h, 800_000_000)
	i := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tt := synthTypes[rng.Intn(len(synthTypes))]
			spec := arch.TileSpec{
				Name:     string(tt) + strconv.Itoa(i),
				Type:     tt,
				At:       arch.Pt(x, y),
				ClockHz:  200_000_000,
				NICapBps: 800_000_000,
			}
			switch tt {
			case arch.TypeMontium:
				spec.MemBytes = 16 << 10
				spec.MaxOccupants = 1
			case arch.TypeDSP:
				spec.MemBytes = 32 << 10
			default:
				spec.MemBytes = 64 << 10
			}
			p.AttachTile(spec)
			i++
		}
	}
	return p
}
