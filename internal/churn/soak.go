package churn

import (
	"fmt"
	"time"

	"rtsm/internal/stream"
)

// RunSoak pushes o.Apps arrivals through a stream.Server (tuned by
// server; its Backend is the stack's) over a freshly built stack while
// the Recycler keeps at most o.Resident admissions alive, then shuts
// down gracefully and checks the ledger. It is the engine behind
// cmd/serve's default mode and the BenchmarkStream* benchmarks.
func RunSoak(o Options, server stream.Options) Result {
	s, err := NewStack(o)
	if err != nil {
		return Result{ConfigErr: err}
	}
	server.Backend = s.Backend
	srv, err := stream.New(server)
	if err != nil {
		s.Close()
		return Result{ConfigErr: err}
	}
	collected := s.Collect(srv)

	start := time.Now()
	for i := 0; i < s.Options.Apps; i++ {
		if err := srv.Submit(s.Arrival(i)); err != nil {
			break
		}
	}
	rep := srv.Shutdown()
	<-collected
	elapsed := time.Since(start)

	r := Result{Report: rep, Stats: s.Manager.Stats(), Elapsed: elapsed, JournalErr: s.Close()}
	if !rep.LedgerOK() {
		r.LedgerErr = fmt.Errorf("churn: ledger broken: admitted %d + rejected %d + shed %d + expired %d != submitted %d",
			rep.Admitted, rep.Rejected, rep.Shed(), rep.Expired, rep.Submitted)
		return r
	}
	r.LedgerErr = s.Manager.CheckInvariants()
	return r
}
