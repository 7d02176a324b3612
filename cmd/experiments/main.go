// Command experiments regenerates the paper's tables and figures and the
// extended benchmark suite. Run with -list to see the available
// experiment IDs, or -e all for the full report (EXPERIMENTS.md records
// the outcomes of exactly this run).
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"rtsm/internal/experiments"
)

// selectors maps each -e value to its report; iters sizes the runtime
// experiment.
var selectors = map[string]func(iters int) (string, error){
	"fig1":   func(int) (string, error) { return experiments.Fig1(), nil },
	"table1": func(int) (string, error) { return experiments.Table1(experiments.DefaultMode), nil },
	"fig2":   func(int) (string, error) { return experiments.Fig2(), nil },
	"table2": func(int) (out string, err error) { out, _, err = experiments.Table2(); return },
	"fig3":   func(int) (out string, err error) { out, _, err = experiments.Fig3(); return },
	"runtime": func(iters int) (string, error) {
		rep, err := experiments.MapperRuntime(iters)
		if err != nil {
			return "", err
		}
		return rep.String(), nil
	},
	"runtime-vs-designtime": func(int) (out string, err error) { _, out, err = experiments.RuntimeVsDesignTime(); return },
	"quality":               func(int) (out string, err error) { _, out, err = experiments.Quality(10); return },
	"scaling":               func(int) (out string, err error) { _, out, err = experiments.Scaling(); return },
	"ablation":              func(int) (out string, err error) { _, out, err = experiments.Ablation(); return },
	"validate":              func(int) (string, error) { return experiments.ValidateAll() },
	"admission":             func(int) (out string, err error) { _, out, err = experiments.Admission(); return },
	"all":                   func(int) (string, error) { return experiments.All() },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run exits 0 when the report printed, 2 for a bad flag or an unknown
// -e, 1 when an experiment fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which = fs.String("e", "all", "experiment to run (see -list)")
		list  = fs.Bool("list", false, "list experiment selectors and exit")
		iters = fs.Int("iters", 100, "iterations for the runtime experiment")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(slices.Sorted(maps.Keys(selectors)), "\n"))
		return 0
	}
	report, ok := selectors[*which]
	if !ok {
		fmt.Fprintf(stderr, "experiments: unknown experiment %q (try -list)\n", *which)
		return 2
	}
	out, err := report(*iters)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	fmt.Fprintln(stdout, out)
	return 0
}
