// Command benchgen emits JSON bundles (application + implementation
// library + platform) for cmd/spatialmap: either the paper's HIPERLAN/2
// case or a seeded synthetic instance, answering the paper's call for a
// benchmark corpus (§5).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtsm/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind  = fs.String("kind", "hiperlan2", "bundle kind: hiperlan2|chain|forkjoin|layered")
		mode  = fs.String("mode", "QPSK3/4", "HIPERLAN/2 mode (hiperlan2 kind)")
		procs = fs.Int("procs", 8, "process count (synthetic kinds)")
		seed  = fs.Int64("seed", 1, "generator seed (synthetic kinds)")
		mesh  = fs.Int("mesh", 4, "mesh edge length (synthetic kinds)")
		out   = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "benchgen:", err)
		return 1
	}

	var bundle *workload.Bundle
	switch *kind {
	case "hiperlan2":
		var m *workload.Hiperlan2Mode
		for i := range workload.Hiperlan2Modes {
			if workload.Hiperlan2Modes[i].Name == *mode {
				m = &workload.Hiperlan2Modes[i]
				break
			}
		}
		if m == nil {
			return fatal(fmt.Errorf("unknown mode %q", *mode))
		}
		bundle = workload.NewBundle(
			workload.Hiperlan2(*m),
			workload.Hiperlan2Library(*m),
			workload.Hiperlan2Platform())
	case "chain", "forkjoin", "layered":
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape:     workload.Shape(*kind),
			Processes: *procs,
			Seed:      *seed,
		})
		bundle = workload.NewBundle(app, lib, workload.SyntheticPlatform(*mesh, *mesh, *seed))
	default:
		return fatal(fmt.Errorf("unknown kind %q", *kind))
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := bundle.Write(w); err != nil {
		return fatal(err)
	}
	return 0
}
