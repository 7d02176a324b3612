// Command churn drives the concurrent admission pipeline with an online
// workload: hundreds of streaming applications from a recurring catalogue
// arrive through a bounded work queue, run for a while and leave, while N
// workers map arrivals in parallel against platform snapshots. It reports
// admission throughput and latency — including how much of the conflict
// and stale-template load the incremental repair engine absorbed — and
// verifies the reservation ledger is exactly clean after full churn. The
// scenario loop itself lives in internal/churn so the tests can drive it.
//
// Examples:
//
//	go run ./cmd/churn                       # 4 workers, 400 arrivals
//	go run ./cmd/churn -workers 8 -apps 1000 # heavier
//	go run ./cmd/churn -regionsize 4         # one SRC/SINK pair per 4×4 block
//	go run ./cmd/churn -priomix 70:20:10     # mixed admission classes, preemption on
//	go run ./cmd/churn -faultrate 0.02       # fail a tile per ~50 arrivals, measure recovery
//	go run ./cmd/churn -journal run.journal    # stream the hash-chained admission journal
//	go run ./cmd/churn -cpuprofile cpu.prof    # profile the run (-memprofile: the heap at its end)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtsm/internal/churn"
	"rtsm/internal/journal"
	"rtsm/internal/model"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func report(w io.Writer, label string, r churn.Result) {
	st := r.Stats
	total := st.Admitted + st.Rejected
	fmt.Fprintf(w, "%s:\n", label)
	fmt.Fprintf(w, "  arrivals          %d (%d admitted, %d rejected, %.1f%% admitted)\n",
		total, st.Admitted, st.Rejected, 100*float64(st.Admitted)/float64(max(total, 1)))
	fmt.Fprintf(w, "  throughput        %.1f admissions/sec over %v\n", r.AdmissionsPerSec(), r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  optimistic retry  %d commit conflicts, %d re-mapping rounds\n", st.Conflicts, st.Retries)
	fmt.Fprintf(w, "  template reuse    %d of %d admissions (%.1f%%)\n",
		st.TemplateHits, st.Admitted, 100*float64(st.TemplateHits)/float64(max(st.Admitted, 1)))
	fmt.Fprintf(w, "  incremental repair %d of %d retry/stale rounds repaired (%d of %d conflict retries, %d of %d stale templates; %d fell back to full remap)\n",
		st.RepairedConflicts+st.RepairedTemplates, st.ConflictRetries+st.StaleTemplates,
		st.RepairedConflicts, st.ConflictRetries, st.RepairedTemplates, st.StaleTemplates, st.FullRemaps)
	if st.Snapshots > 0 {
		fmt.Fprintf(w, "  snapshots         %d captured\n", st.Snapshots)
	}
	if rate, ok := st.RepairRate(); ok {
		fmt.Fprintf(w, "  repair rate       %.1f%%\n", 100*rate)
	}
	for c := 0; c < model.NumPriorities; c++ {
		cls := st.ByClass[c]
		if cls.Admitted+cls.Rejected == 0 {
			continue
		}
		rate, _ := st.AdmissionRate(model.Priority(c))
		fmt.Fprintf(w, "  class %-11s %d arrivals, %.1f%% admitted\n",
			model.Priority(c), cls.Admitted+cls.Rejected, 100*rate)
	}
	if st.Preemptions > 0 {
		fmt.Fprintf(w, "  preemption        %d victims displaced (%d relocated, %d evicted)\n",
			st.Preemptions, st.Relocations, st.Evictions)
	}
	if st.FaultsInjected > 0 {
		fmt.Fprintf(w, "  faults            %d injected (%d residents relocated, %d dropped), recover mean %v, max %v\n",
			st.FaultsInjected, st.FaultRelocated, st.FaultDropped,
			(r.FaultRecoverTotal / time.Duration(st.FaultsInjected)).Round(time.Microsecond), r.FaultRecoverMax.Round(time.Microsecond))
	}
	if r.JournalErr != nil {
		fmt.Fprintf(w, "  journal           WRITE FAILED: %v\n", r.JournalErr)
	}
	if total > 0 {
		fmt.Fprintf(w, "  mean latencies    wait %v, map %v, repair %v, commit %v\n",
			(st.Wait / time.Duration(total)).Round(time.Microsecond),
			(st.Map / time.Duration(total)).Round(time.Microsecond),
			(st.Repair / time.Duration(total)).Round(time.Microsecond),
			(st.Commit / time.Duration(total)).Round(time.Microsecond))
	}
	if r.LedgerErr != nil {
		fmt.Fprintf(w, "  ledger            INVARIANT VIOLATED: %v\n", r.LedgerErr)
		return
	}
	fmt.Fprintf(w, "  ledger clean      %v\n", r.Clean)
	if !r.Clean {
		fmt.Fprintf(w, "  ledger drift      %d tiles, %d links changed\n", len(r.Drift.Tiles), len(r.Drift.Links))
	}
}

// validate fails fast on flag values that would silently run a different
// scenario than the one asked for, instead of surfacing as a confusing
// report later.
func validate(o churn.Options) error {
	if o.FaultRate < 0 {
		return fmt.Errorf("churn: -faultrate %g is negative", o.FaultRate)
	}
	_, err := churn.ParsePrioMix(o.PrioMix)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	o := churn.Defaults()
	o.ErrWriter = stderr
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.Workers, "workers", o.Workers, "admission worker goroutines")
	fs.IntVar(&o.Queue, "queue", 0, "work queue depth (0 = 16x workers)")
	fs.IntVar(&o.Apps, "apps", o.Apps, "number of application arrivals")
	fs.IntVar(&o.Mesh, "mesh", o.Mesh, "platform mesh width and height")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "platform generator seed")
	fs.IntVar(&o.Catalogue, "catalogue", o.Catalogue, "distinct application structures in rotation")
	fs.Float64Var(&o.MaxUtil, "util", o.MaxUtil, "max per-implementation utilisation")
	fs.Int64Var(&o.PeriodNs, "period", o.PeriodNs, "QoS period in ns")
	fs.IntVar(&o.Resident, "resident", o.Resident, "applications kept running at once (0 = 4x workers)")
	fs.IntVar(&o.RegionSize, "regionsize", 0, "side length of the mesh blocks that each get their own SRC<r>/SINK<r> stream endpoints (0 = one SRC0/SINK0 pair)")
	fs.StringVar(&o.PrioMix, "priomix", "", "mixed admission classes as bestEffort:standard:critical weights, e.g. 70:20:10 (empty = all best-effort)")
	fs.Float64Var(&o.FaultRate, "faultrate", 0, "inject run-time tile faults at this expected rate per arrival, evacuating and relocating residents (0 = off)")
	journalTo := fs.String("journal", "", "stream the hash-chained admission journal to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the run is over")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validate(o); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *journalTo != "" {
		var err error
		if o.Journal, err = journal.OpenFile(*journalTo, 0, false); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	// Resolve the defaults here so the report names what actually runs.
	o = o.WithDefaults()

	return churn.Profiled(*cpuProfile, *memProfile, stderr, func() int {
		pipe := churn.Run(o)
		if pipe.ConfigErr != nil {
			fmt.Fprintln(stderr, pipe.ConfigErr)
			return 2
		}
		fmt.Fprintf(stdout, "churn: %d arrivals from a %d-structure catalogue onto a %d×%d mesh\n\n", o.Apps, o.Catalogue, o.Mesh, o.Mesh)
		report(stdout, fmt.Sprintf("pipeline (%d workers)", o.Workers), pipe)
		if !pipe.Clean || pipe.LedgerErr != nil || pipe.JournalErr != nil {
			return 1
		}
		return 0
	})
}
