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
	reports := map[string]func(iters int) (string, error){"all": experiments.All}
	for _, r := range experiments.Reports {
		reports[r.ID] = r.Run
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(slices.Sorted(maps.Keys(reports)), "\n"))
		return 0
	}
	report, ok := reports[*which]
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
