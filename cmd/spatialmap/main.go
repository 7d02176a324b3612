// Command spatialmap maps one streaming application onto one platform
// and narrates the paper's worked example (§4) for it: step 1's choices,
// step 2's iterations as Table 2, step 3's routes, step 4's period,
// latency and buffers, the itemised energy and, for a feasible mapping,
// the simulator's independent check. -json prints a machine-readable
// result instead, -dot the mapped CSDF graph (Figure 3) as Graphviz DOT.
//
// The input is one JSON bundle (application, implementation library and
// platform), read from -in (default stdin) or generated by -gen: the
// HIPERLAN/2 receiver on the Figure 2 MPSoC in one of its seven demapping
// modes, or a seeded synthetic instance (§5). -out writes the bundle it
// maps.
//
//	go run ./cmd/spatialmap -gen hiperlan2 -mode 64QAM3/4
//	go run ./cmd/spatialmap -gen layered -procs 12 -mesh 6 -out l.json -json
//	go run ./cmd/spatialmap -in l.json -strategy best -router xy
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/energy"
	"rtsm/internal/model"
	"rtsm/internal/sim"
	"rtsm/internal/workload"
)

type jsonResult struct {
	Feasible    bool              `json:"feasible"`
	EnergyNJ    float64           `json:"energyNJ"`
	PeriodNs    float64           `json:"periodNs"`
	LatencyNs   int64             `json:"latencyNs"`
	Refinements int               `json:"refinements"`
	Placement   map[string]string `json:"placement"` // process -> tile
	Routes      map[string]int    `json:"routes"`    // channel -> hops
	Buffers     map[string]int64  `json:"buffers"`   // channel -> tokens
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run exits 0 for a feasible mapping, 2 for an infeasible one or a bad
// flag, 1 for any other error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spatialmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "bundle JSON file (default stdin)")
		gen      = fs.String("gen", "", "generate the bundle instead of reading it: hiperlan2|chain|forkjoin|layered")
		modeName = fs.String("mode", "QPSK3/4", "HIPERLAN/2 demapping mode (-gen hiperlan2)")
		procs    = fs.Int("procs", 8, "process count (synthetic -gen)")
		seed     = fs.Int64("seed", 1, "generator seed (synthetic -gen)")
		mesh     = fs.Int("mesh", 4, "mesh edge length (synthetic -gen)")
		out      = fs.String("out", "", "also write the bundle it maps to this file")
		asJSON   = fs.Bool("json", false, "emit the result as JSON")
		dot      = fs.Bool("dot", false, "emit the mapped CSDF graph (Figure 3) as Graphviz DOT")
		strategy = fs.String("strategy", "first", "step-2 strategy: first|best")
		router   = fs.String("router", "adaptive", "step-3 routing: adaptive|xy")
		weighted = fs.Bool("weighted", false, "traffic-weighted step-2 cost instead of hop sum")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "spatialmap:", err)
		return code
	}

	var cfg core.Config
	switch *strategy {
	case "first":
	case "best":
		cfg.Strategy = core.BestImprovement
	default:
		return fail(2, fmt.Errorf("unknown strategy %q", *strategy))
	}
	switch *router {
	case "adaptive":
	case "xy":
		cfg.Router = core.XYOnly
	default:
		return fail(2, fmt.Errorf("unknown router %q", *router))
	}
	if *weighted {
		cfg.CommCost = core.TrafficWeighted
	}
	mode, err := hiperlan2Mode(*modeName)
	switch {
	case err != nil:
		return fail(2, err)
	case *gen != "" && *in != "":
		return fail(2, errors.New("-gen and -in are exclusive"))
	case *asJSON && *dot:
		return fail(2, errors.New("-json and -dot are exclusive"))
	case *procs < 1 || *mesh < 1:
		return fail(2, fmt.Errorf("-procs %d and -mesh %d must be positive", *procs, *mesh))
	}

	// Every bundle goes through its JSON form, so a generated one maps
	// exactly as the file -out writes does when read back with -in.
	var bundle bytes.Buffer
	if *gen != "" {
		b, err := generate(*gen, mode, *procs, *seed, *mesh)
		if err != nil {
			return fail(2, err)
		}
		if err := b.Write(&bundle); err != nil {
			return fail(1, err)
		}
	} else {
		r := os.Stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return fail(1, err)
			}
			defer f.Close()
			r = f
		}
		if _, err := bundle.ReadFrom(r); err != nil {
			return fail(1, err)
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, bundle.Bytes(), 0o666); err != nil {
			return fail(1, err)
		}
	}
	app, lib, plat, err := workload.ReadBundle(&bundle)
	if err != nil {
		return fail(1, err)
	}

	res, err := (&core.Mapper{Lib: lib, Cfg: cfg}).Map(app, plat)
	if err != nil {
		return fail(1, err)
	}
	verdict := 0
	if !res.Feasible {
		verdict = 2
	}
	switch {
	case *asJSON:
		err = encodeJSON(stdout, app, plat, res)
	case *dot:
		if res.Graph == nil {
			return fail(2, errors.New("the mapping stopped before step 4 built its CSDF graph"))
		}
		_, err = fmt.Fprint(stdout, res.Graph.DOT())
	default:
		err = narrate(stdout, app, plat, res)
	}
	if err != nil {
		return fail(1, err)
	}
	return verdict
}

// hiperlan2Mode looks a demapping mode up by name; the error lists the
// seven.
func hiperlan2Mode(name string) (workload.Hiperlan2Mode, error) {
	names := make([]string, len(workload.Hiperlan2Modes))
	for i, m := range workload.Hiperlan2Modes {
		if m.Name == name {
			return m, nil
		}
		names[i] = m.Name
	}
	return workload.Hiperlan2Mode{}, fmt.Errorf("unknown mode %q (modes: %s)", name, strings.Join(names, " "))
}

// generate builds the bundle -gen names.
func generate(kind string, mode workload.Hiperlan2Mode, procs int, seed int64, mesh int) (*workload.Bundle, error) {
	switch kind {
	case "hiperlan2":
		return workload.NewBundle(workload.Hiperlan2(mode), workload.Hiperlan2Library(mode), workload.Hiperlan2Platform()), nil
	case "chain", "forkjoin", "layered":
		app, lib := workload.Synthetic(workload.SynthOptions{Shape: workload.Shape(kind), Processes: procs, Seed: seed})
		return workload.NewBundle(app, lib, workload.SyntheticPlatform(mesh, mesh, seed)), nil
	}
	return nil, fmt.Errorf("unknown kind %q (-gen hiperlan2|chain|forkjoin|layered)", kind)
}

// encodeJSON writes the machine-readable result.
func encodeJSON(w io.Writer, app *model.Application, plat *arch.Platform, res *core.Result) error {
	out := jsonResult{
		Feasible:    res.Feasible,
		EnergyNJ:    res.Energy.Total(),
		Refinements: res.Refinements,
		Placement:   make(map[string]string),
		Routes:      make(map[string]int),
		Buffers:     make(map[string]int64),
	}
	if res.Analysis != nil {
		out.PeriodNs = res.Analysis.Period
		out.LatencyNs = res.Analysis.Latency
	}
	for _, p := range app.Processes {
		if tid, ok := res.Mapping.Tile[p.ID]; ok {
			out.Placement[p.Name] = plat.Tile(tid).Name
		}
	}
	for _, c := range app.StreamChannels() {
		if path, ok := res.Mapping.Route[c.ID]; ok {
			out.Routes[c.Name] = path.Hops()
		}
		if buf, ok := res.Mapping.Buffers[c.ID]; ok {
			out.Buffers[c.Name] = buf
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// narrate prints the four steps as the paper walks through them, the
// itemised energy and, for a feasible mapping, the simulator's check.
func narrate(w io.Writer, app *model.Application, plat *arch.Platform, res *core.Result) error {
	fmt.Fprintf(w, "application %q on platform %q\n", app.Name, plat.Name)
	fmt.Fprintln(w, "\nStep 1 — implementation assignment (by desirability):")
	for _, r := range res.Trace.Step1 {
		fmt.Fprintln(w, " ", r)
	}
	fmt.Fprintln(w, "\nStep 2 — tile assignment (Table 2):")
	fmt.Fprint(w, res.Trace.RenderStep2Table(step2Tiles(res.Trace, plat)))
	fmt.Fprintln(w, "\nStep 3 — channel routing (non-increasing throughput):")
	for _, r := range res.Trace.Step3 {
		fmt.Fprintln(w, " ", r)
	}
	fmt.Fprintln(w, "\nStep 4 — QoS verification:")
	if res.Analysis != nil {
		fmt.Fprintf(w, "  period  %.0f ns (required %d ns)\n", res.Analysis.Period, app.QoS.PeriodNs)
		fmt.Fprintf(w, "  latency %d ns\n", res.Analysis.Latency)
	}
	for _, c := range app.StreamChannels() {
		if buf, ok := res.Mapping.Buffers[c.ID]; ok {
			fmt.Fprintf(w, "  buffer  %-24s %d tokens\n", c.Name, buf)
		}
	}
	fmt.Fprintf(w, "  feasible: %v (refinements: %d)\n", res.Feasible, res.Refinements)
	for _, n := range res.Trace.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, energy.DefaultParams().Detailed(app, plat, core.AssignmentView(res.Mapping)))
	if !res.Feasible {
		return nil
	}
	rep, err := sim.Validate(app, plat, res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nIndependent check: %s\n", rep)
	return err
}

// step2Tiles names the tiles step 2's rows place processes on, in
// platform order: the columns of its Table 2.
func step2Tiles(tr *core.Trace, plat *arch.Platform) []string {
	used := make(map[string]bool)
	for _, r := range tr.Step2 {
		for _, t := range r.Tiles {
			used[t] = true
		}
		used[r.TileB] = true
	}
	var cols []string
	for _, t := range plat.Tiles {
		if used[t.Name] {
			cols = append(cols, t.Name)
		}
	}
	return cols
}
