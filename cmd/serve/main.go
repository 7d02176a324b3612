// Command serve runs the streaming admission front-end in one of three
// modes over the same churn.Stack. By default it drives a synthetic
// arrival storm through the stream server (class shares, dead-letter
// retry queue) into the manager pipeline, printing the
// exactly-one-outcome ledger. With -listen it becomes a real service:
// an HTTP front door (POST /admit, GET /healthz, /readyz, /metricsz)
// with graceful drain on SIGINT/SIGTERM
// and — when -journal names a file with previous segments —
// crash-restart recovery: the chain is verified, the torn tail
// truncated, and the platform plus resident set replayed before the
// listener accepts traffic. With -chaos it executes a deterministic
// fault script against an in-process HTTP door and exits nonzero if the
// ledger breaks or a Critical arrival is shed.
//
// Examples:
//
//	go run ./cmd/serve                          # 100k arrivals
//	go run ./cmd/serve -arrivals 2000000        # the EXPERIMENTS.md soak
//	go run ./cmd/serve -listen :8080 -journal run.journal   # network service
//	go run ./cmd/serve -chaos script.txt -journal c.journal # chaos harness
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rtsm/internal/chaos"
	"rtsm/internal/churn"
	"rtsm/internal/front"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/stream"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line: the stack, the stream stages and
// the mode selectors.
type config struct {
	stack  churn.Options
	server stream.Options

	journalTo, listen, chaosPath string
	syncEvery                    int
	requireShed, requireDLQ      bool

	stdout, stderr io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	// The class shares and dead-letter policy are not flags: every run,
	// script and benchmark uses internal/stream's defaults plus a
	// 1024-entry dead-letter queue.
	c := config{stdout: stdout, stderr: stderr, server: stream.Options{DLQ: 1024}}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&c.stack.Apps, "arrivals", 100_000, "number of application arrivals to generate (soak and chaos modes)")
	fs.IntVar(&c.stack.Workers, "workers", 4, "admission worker goroutines")
	fs.IntVar(&c.stack.Queue, "queue", 0, "backend work queue depth (0 = 16x workers)")
	fs.IntVar(&c.stack.Mesh, "mesh", 12, "platform mesh width and height")
	fs.IntVar(&c.stack.RegionSize, "regionsize", 3, "side length of the mesh blocks that each get their own SRC<r>/SINK<r> stream endpoints (0 = one SRC0/SINK0 pair)")
	fs.Int64Var(&c.stack.Seed, "seed", 123, "platform seed")
	fs.IntVar(&c.stack.Catalogue, "catalogue", 6, "distinct application structures in rotation")
	fs.Float64Var(&c.stack.MaxUtil, "util", 0.12, "max per-implementation utilisation")
	fs.Int64Var(&c.stack.PeriodNs, "period", 40_000, "QoS period in ns")
	fs.StringVar(&c.stack.PrioMix, "priomix", "60:30:10", "admission classes as bestEffort:standard:critical weights")
	fs.IntVar(&c.stack.Resident, "resident", 0, "admissions kept running at once (0 = 4x workers)")

	fs.DurationVar(&c.server.Window, "window", time.Second, "rolling metrics window for p50/p99 and rate")

	fs.StringVar(&c.journalTo, "journal", "", "stream the hash-chained admission journal to this file")
	fs.IntVar(&c.syncEvery, "syncevery", 0, "fsync the journal after every n-th event (0 = on acks only)")
	fs.StringVar(&c.listen, "listen", "", "serve the HTTP front door on this address (e.g. :8080) until SIGINT/SIGTERM")
	fs.StringVar(&c.chaosPath, "chaos", "", "execute this chaos script against an in-process HTTP door and exit")
	fs.BoolVar(&c.requireShed, "requireshed", false, "exit nonzero unless the run shed at least one arrival (CI smoke)")
	fs.BoolVar(&c.requireDLQ, "requiredlq", false, "exit nonzero unless the DLQ recovered at least one arrival (CI smoke)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the run is over")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// churn.NewStack refuses the stack's fields; these two never reach it.
	if c.server.Window < 0 {
		return c.fail(2, "-window %v is negative", c.server.Window)
	}
	if c.syncEvery < 0 {
		return c.fail(2, "-syncevery %d is negative", c.syncEvery)
	}

	// Only the service recovers what a previous process left in the
	// journal; the soak and the chaos harness start a fresh chain.
	serve, resume := c.soak, false
	switch {
	case c.chaosPath != "":
		serve = c.chaos
	case c.listen != "":
		serve, resume = c.serveHTTP, true
	}
	if c.journalTo != "" {
		var err error
		if c.stack.Journal, err = journal.OpenFile(c.journalTo, c.syncEvery, resume); err != nil {
			return c.fail(2, "%v", err)
		}
	}
	return churn.Profiled(*cpuProfile, *memProfile, stderr, serve)
}

// fail prints one diagnostic and returns the exit code.
func (c *config) fail(code int, format string, args ...any) int {
	fmt.Fprintf(c.stderr, "serve: "+format+"\n", args...)
	return code
}

// soak is the in-process storm: generate, admit, report.
func (c *config) soak() int {
	res := churn.RunSoak(c.stack, c.server)
	if res.ConfigErr != nil {
		return c.fail(2, "%v", res.ConfigErr)
	}
	if res.JournalErr != nil {
		return c.fail(1, "journal: %v", res.JournalErr)
	}
	fmt.Fprintf(c.stdout, "streaming admission:\n")
	fmt.Fprintf(c.stdout, "  arrivals          %d over %v (%.0f arrivals/sec, %.0f admissions/sec)\n",
		res.Report.Submitted, res.Elapsed.Round(time.Millisecond), float64(res.Report.Submitted)/res.Elapsed.Seconds(), res.AdmissionsPerSec())
	c.reportStream(res.Report)
	st := res.Stats
	fmt.Fprintf(c.stdout, "  backend           %d admitted, %d rejected, %d conflicts, %d template hits\n",
		st.Admitted, st.Rejected, st.Conflicts, st.TemplateHits)
	code := 0
	if res.LedgerErr != nil {
		code = c.fail(1, "%v", res.LedgerErr)
	} else {
		fmt.Fprintf(c.stdout, "  ledger ok         true\n")
	}
	if c.requireShed && res.Report.Shed() == 0 {
		code = c.fail(1, "-requireshed: the run shed nothing")
	}
	if c.requireDLQ && res.Report.Recovered == 0 {
		code = c.fail(1, "-requiredlq: the DLQ recovered nothing")
	}
	return code
}

// chaos executes a fault script against an in-process HTTP door (see
// internal/chaos for the script DSL) and gates on the robustness
// invariants: nonzero exit on a broken aggregate ledger or any shed
// Critical arrival.
func (c *config) chaos() int {
	f, err := os.Open(c.chaosPath)
	if err != nil {
		return c.fail(2, "chaos: %v", err)
	}
	script, err := chaos.ParseScript(f)
	f.Close()
	if err != nil {
		return c.fail(2, "%v", err)
	}
	rep, err := chaos.Run(script, chaos.Options{Stack: c.stack, Server: c.server})
	if err != nil {
		return c.fail(2, "%v", err)
	}
	fmt.Fprintf(c.stdout, "chaos run:\n")
	fmt.Fprintf(c.stdout, "  arrivals          %d over %d incarnation(s)\n", rep.Arrivals, rep.Incarnations)
	fmt.Fprintf(c.stdout, "  steps             %d faults, %d restores, %d spikes, %d drains, %d crashes\n",
		rep.FaultsInjected, rep.Restores, rep.Spikes, rep.Drains, rep.Crashes)
	if rep.ReplayChecks > 0 {
		fmt.Fprintf(c.stdout, "  recovery          %d replay checks passed, %d torn events discarded\n",
			rep.ReplayChecks, rep.TornDiscarded)
	}
	c.reportStream(rep.Stream)
	fmt.Fprintf(c.stdout, "  door              %d requests, %d admitted, %d busy, %d rejected\n",
		rep.Door.Requests, rep.Door.Admitted, rep.Door.Busy, rep.Door.Rejected)
	fmt.Fprintf(c.stdout, "  ledger ok         %v\n", rep.LedgerOK)
	code := 0
	if !rep.LedgerOK {
		code = c.fail(1, "chaos: aggregate ledger mismatch")
	}
	if rep.CriticalShed != 0 {
		code = c.fail(1, "chaos: %d Critical arrivals shed", rep.CriticalShed)
	}
	return code
}

// serveHTTP serves the HTTP front door until SIGINT/SIGTERM, then
// drains: readiness flips first, in-flight /admit requests finish, the
// stream pipeline shuts down, and the final ledger prints. A journal
// that recovered earlier segments was replayed by NewStack before the
// listener binds; recovered residents head the recycle queue.
func (c *config) serveHTTP() int {
	st, err := churn.NewStack(c.stack)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	if j := c.stack.Journal; j != nil && j.Segments > 0 {
		fmt.Fprintf(c.stdout, "recovered %d events (%d residents) from %d segment(s), resuming at seq %d\n",
			st.Replayed, len(st.Manager.Running()), j.Segments, j.Recovered.Seq)
	}
	c.server.Backend = st.Backend
	srv, err := stream.New(c.server)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	door, err := front.Listen(front.Options{Server: srv, Addr: c.listen, Decode: st.Decode})
	if err != nil {
		srv.Shutdown()
		return c.fail(2, "%v", err)
	}
	collected := st.Collect(srv)

	fmt.Fprintf(c.stdout, "listening on %s (mesh %dx%d, %d workers)\n", door.Addr(), c.stack.Mesh, c.stack.Mesh, c.stack.Workers)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(c.stdout, "draining...")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := door.Drain(ctx); err != nil {
		fmt.Fprintf(c.stderr, "serve: drain: %v\n", err)
	}
	rep := srv.Shutdown()
	<-collected
	if err := st.Close(); err != nil {
		return c.fail(1, "journal: %v", err)
	}

	ds := door.Stats()
	fmt.Fprintf(c.stdout, "front door:\n")
	fmt.Fprintf(c.stdout, "  requests          %d (%d admitted, %d busy, %d rejected, %d timeout, %d bad)\n",
		ds.Requests, ds.Admitted, ds.Busy, ds.Rejected, ds.Timeout, ds.BadRequest)
	c.reportStream(rep)
	fmt.Fprintf(c.stdout, "  ledger ok         %v\n", rep.LedgerOK())
	if !rep.LedgerOK() {
		return c.fail(1, "ledger mismatch")
	}
	return 0
}

// reportStream prints the stream ledger lines shared by all modes.
func (c *config) reportStream(rep stream.Report) {
	w := c.stdout
	fmt.Fprintf(w, "  ledger            %d admitted (%d via DLQ) + %d rejected + %d shed + %d expired = %d\n",
		rep.Admitted, rep.Recovered, rep.Rejected, rep.Shed(), rep.Expired,
		rep.Admitted+rep.Rejected+rep.Shed()+rep.Expired)
	for p, n := range rep.ShedByClass {
		if n > 0 {
			fmt.Fprintf(w, "  shed %-12s %d\n", model.Priority(p), n)
		}
	}
	if rep.Shed() > 0 {
		fmt.Fprintf(w, "  shed stages       %d at class shares, %d at the backend queue, %d at deadlines\n",
			rep.ShedShare, rep.ShedQueue, rep.ShedDeadline)
	}
	fmt.Fprintf(w, "  dead letters      %d recovered, %d expired\n", rep.Recovered, rep.Expired)
	for p := range rep.RecoveredByClass {
		if rep.RecoveredByClass[p]+rep.ExpiredByClass[p] > 0 {
			fmt.Fprintf(w, "  dlq %-13s %d recovered, %d expired\n",
				model.Priority(p), rep.RecoveredByClass[p], rep.ExpiredByClass[p])
		}
	}
	fmt.Fprintf(w, "  window            p50 %v, p99 %v, %.0f admissions/sec over %d samples\n",
		rep.Window.P50.Round(time.Microsecond), rep.Window.P99.Round(time.Microsecond),
		rep.Window.PerSec, rep.Window.Samples)
}
