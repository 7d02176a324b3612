// Command hiperlan2 runs the paper's worked example (§4) end to end for a
// chosen demapping mode: step-by-step trace, the resulting CSDF graph with
// buffer capacities, the energy breakdown, and an independent simulation
// check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtsm/internal/core"
	"rtsm/internal/energy"
	"rtsm/internal/sim"
	"rtsm/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hiperlan2", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modeName  = fs.String("mode", "QPSK3/4", "HIPERLAN/2 mode (see -modes)")
		listModes = fs.Bool("modes", false, "list the seven modes and exit")
		verbose   = fs.Bool("v", false, "print the full CSDF graph")
		dot       = fs.Bool("dot", false, "emit the mapped CSDF graph (Figure 3) as Graphviz DOT and exit")
		itemise   = fs.Bool("energy", false, "print the itemised energy report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listModes {
		for _, m := range workload.Hiperlan2Modes {
			fmt.Fprintf(stdout, "%-10s b=%d\n", m.Name, m.DemapBits)
		}
		return 0
	}
	var mode *workload.Hiperlan2Mode
	for i := range workload.Hiperlan2Modes {
		if workload.Hiperlan2Modes[i].Name == *modeName {
			mode = &workload.Hiperlan2Modes[i]
			break
		}
	}
	if mode == nil {
		fmt.Fprintf(stderr, "hiperlan2: unknown mode %q (try -modes)\n", *modeName)
		return 1
	}

	app := workload.Hiperlan2(*mode)
	lib := workload.Hiperlan2Library(*mode)
	plat := workload.Hiperlan2Platform()
	fmt.Fprintf(stdout, "Mapping %s onto %s\n\n", app.Name, plat.Name)
	fmt.Fprint(stdout, plat)

	res, err := core.NewMapper(lib).Map(app, plat)
	if err != nil {
		fmt.Fprintln(stderr, "hiperlan2:", err)
		return 1
	}
	if *dot {
		fmt.Fprint(stdout, res.Graph.DOT())
		return 0
	}

	fmt.Fprintln(stdout, "\nStep 1 — implementation assignment (by desirability):")
	for _, r := range res.Trace.Step1 {
		fmt.Fprintln(stdout, " ", r)
	}
	fmt.Fprintln(stdout, "\nStep 2 — tile assignment (Table 2):")
	fmt.Fprint(stdout, res.Trace.RenderStep2Table([]string{"ARM1", "ARM2", "MONTIUM1", "MONTIUM2"}))
	fmt.Fprintln(stdout, "\nStep 3 — channel routing (non-increasing throughput):")
	for _, r := range res.Trace.Step3 {
		fmt.Fprintln(stdout, " ", r)
	}
	fmt.Fprintln(stdout, "\nStep 4 — QoS verification:")
	fmt.Fprintf(stdout, "  period  %.0f ns (required %d ns)\n", res.Analysis.Period, app.QoS.PeriodNs)
	fmt.Fprintf(stdout, "  latency %d ns\n", res.Analysis.Latency)
	fmt.Fprintf(stdout, "  buffers:")
	for _, c := range app.StreamChannels() {
		fmt.Fprintf(stdout, "  %s=%d", c.Name, res.Mapping.Buffers[c.ID])
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "  feasible: %v (refinements: %d)\n", res.Feasible, res.Refinements)
	fmt.Fprintf(stdout, "\nEnergy: %s\n", res.Energy)
	if *itemise {
		params := energy.DefaultParams()
		fmt.Fprint(stdout, params.Detailed(app, plat, core.AssignmentView(res.Mapping)))
	}

	if *verbose {
		fmt.Fprintln(stdout, "\nFinal CSDF graph (Figure 3):")
		fmt.Fprint(stdout, res.Graph)
	}

	if res.Feasible {
		rep, err := sim.Validate(app, plat, res)
		if err != nil {
			fmt.Fprintln(stderr, "hiperlan2: simulation:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nIndependent check: %s\n", rep)
	}
	return 0
}
