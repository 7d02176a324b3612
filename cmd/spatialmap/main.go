// Command spatialmap maps an arbitrary streaming application onto an
// arbitrary platform, both supplied as one JSON bundle (see cmd/benchgen
// for producing bundles). It prints the mapping, its energy and the QoS
// verdict; -json emits a machine-readable result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rtsm/internal/core"
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
		asJSON   = fs.Bool("json", false, "emit the result as JSON")
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

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		r = f
	}
	app, lib, plat, err := workload.ReadBundle(r)
	if err != nil {
		return fail(1, err)
	}

	res, err := (&core.Mapper{Lib: lib, Cfg: cfg}).Map(app, plat)
	if err != nil {
		return fail(1, err)
	}

	if *asJSON {
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
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(1, err)
		}
		if !res.Feasible {
			return 2
		}
		return 0
	}

	fmt.Fprintf(stdout, "application %q on platform %q\n\n", app.Name, plat.Name)
	fmt.Fprintln(stdout, "placement:")
	for _, p := range app.Processes {
		tid, ok := res.Mapping.Tile[p.ID]
		if !ok {
			continue
		}
		impl := "(pinned)"
		if im := res.Mapping.Impl[p.ID]; im != nil {
			impl = string(im.TileType)
		}
		fmt.Fprintf(stdout, "  %-16s → %-12s %s\n", p.Name, plat.Tile(tid).Name, impl)
	}
	fmt.Fprintln(stdout, "\nroutes:")
	for _, r := range res.Trace.Step3 {
		fmt.Fprintln(stdout, " ", r)
	}
	if res.Analysis != nil {
		fmt.Fprintf(stdout, "\nperiod %.0f ns (required %d), latency %d ns\n",
			res.Analysis.Period, app.QoS.PeriodNs, res.Analysis.Latency)
	}
	fmt.Fprintf(stdout, "energy: %s\nfeasible: %v\n", res.Energy, res.Feasible)
	if !res.Feasible {
		for _, n := range res.Trace.Notes {
			fmt.Fprintln(stdout, "note:", n)
		}
		return 2
	}
	return 0
}
