package stream_test

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rtsm/internal/churn"
	"rtsm/internal/core"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
	"rtsm/internal/workload"
)

// TestServerSoakSaturationAndDLQ drives the full server over a real
// mesh in three phases. Phase A saturates: no resident ever departs, so
// admissions fill the mesh, capacity rejections mount and park in the
// DLQ (utilization is high, so nothing retries). Phase B departs residents until utilization
// drops below the DLQ threshold and parked entries recover. Phase C
// shuts down gracefully and checks the ledger: exactly one outcome per
// arrival, BestEffort shed at least as hard as Standard, Critical never
// shed. Run with -race: the phases exercise submitters, watchers and the
// DLQ loop concurrently.
func TestServerSoakSaturationAndDLQ(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 99, 0)
	m := manager.New(plat, core.Config{})
	pipe := manager.NewPipeline(m, 4, 8)
	backend := stream.NewPipelineBackend(m, pipe)
	srv, err := stream.New(stream.Options{
		Backend: backend, ClassBuf: 8,
		DLQ: 512, DLQBelow: 0.5, DLQRetries: 10_000, DLQEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Collector: record every result and remember admitted names so
	// phase B can depart them.
	var (
		resMu    sync.Mutex
		results  []stream.Result
		admitted []string
	)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for r := range srv.Results() {
			resMu.Lock()
			results = append(results, r)
			if r.Verdict == stream.VerdictAdmitted {
				admitted = append(admitted, r.App)
			}
			resMu.Unlock()
		}
	}()

	// Phase A: saturating burst. Apps are fat (MaxUtil 0.3) so a handful
	// fill the mesh; the even class mix exposes the per-class share
	// asymmetry.
	co := churn.Options{Catalogue: 4, MaxUtil: 0.3, PeriodNs: 40_000, PrioMix: "1:1:1"}
	deadline := time.Now().Add(30 * time.Second)
	subs := 0
	// Report sorts the metrics windows, so poll it once per 16 arrivals.
	live := srv.Report()
	for live.DLQDepth == 0 && time.Now().Before(deadline) {
		for i := 0; i < 16; i++ {
			app, lib := co.Arrival(subs, 1)
			if err := srv.Submit(app, lib); err != nil {
				t.Fatal(err)
			}
			subs++
		}
		live = srv.Report()
	}
	if live.DLQDepth == 0 {
		t.Fatal("no capacity-rejected arrival was parked in the DLQ")
	}

	// Phase B: depart residents until utilization drops and the DLQ
	// recovers at least one parked arrival. Recovered entries re-admit
	// and are departed on the next round, so utilization stays low.
	for srv.Report().Recovered == 0 && time.Now().Before(deadline) {
		resMu.Lock()
		batch := admitted
		admitted = nil
		resMu.Unlock()
		for _, name := range batch {
			switch err := backend.Stop(name); {
			case err == nil:
			case errors.Is(err, manager.ErrRelocating):
				resMu.Lock()
				admitted = append(admitted, name)
				resMu.Unlock()
			default:
				// Already gone (e.g. evicted); nothing to retry.
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Report().Recovered == 0 {
		t.Fatal("DLQ never recovered after load dropped")
	}

	// Phase C: graceful shutdown and the ledger.
	rep := srv.Shutdown()
	<-collectorDone
	if !rep.LedgerOK() {
		t.Fatalf("ledger broken: %+v", rep)
	}
	if rep.Submitted != uint64(subs) {
		t.Fatalf("submitted = %d, want %d", rep.Submitted, subs)
	}
	if uint64(len(results)) != rep.Submitted {
		t.Fatalf("results delivered %d, want %d", len(results), rep.Submitted)
	}
	seen := make(map[string]int, len(results))
	for _, r := range results {
		seen[r.App]++
	}
	for app, c := range seen {
		if c != 1 {
			t.Fatalf("app %s got %d outcomes, want exactly 1", app, c)
		}
	}
	if rep.Recovered == 0 || rep.Admitted < rep.Recovered {
		t.Fatalf("recovery accounting broken: %+v", rep)
	}
	if rep.ShedByClass[model.BestEffort] == 0 {
		t.Fatalf("saturation shed no BestEffort arrivals: %+v", rep)
	}
	if rep.ShedByClass[model.Critical] != 0 {
		t.Fatalf("Critical arrivals were shed: %+v", rep)
	}
	// Share-shed onset order: the first BestEffort arrival dropped
	// because its class had its share awaiting outcomes must precede (in
	// submission order) the first Standard one — BestEffort's share is
	// the smaller, so it is spent first. Queue sheds hit whatever class
	// is submitted when the queue fills, so they carry no onset
	// ordering. Arrival names are churn's "app-<i>-<class>".
	firstShed := map[model.Priority]int{}
	for _, r := range results {
		if r.Verdict != stream.VerdictShed || r.ShedAt != stream.ShedAtShare {
			continue
		}
		i, err := strconv.Atoi(strings.Split(r.App, "-")[1])
		if err != nil {
			t.Fatalf("unparseable arrival name %q: %v", r.App, err)
		}
		if cur, ok := firstShed[r.Class]; !ok || i < cur {
			firstShed[r.Class] = i
		}
	}
	if beFirst, ok := firstShed[model.BestEffort]; ok {
		if stdFirst, ok := firstShed[model.Standard]; ok && stdFirst < beFirst {
			t.Fatalf("Standard shed from arrival %d, before BestEffort's first shed at %d",
				stdFirst, beFirst)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunSoakSmoke runs the packaged soak end to end and checks that the
// ledger and invariants hold.
func TestRunSoakSmoke(t *testing.T) {
	res := churn.RunSoak(churn.Options{
		Apps: 1200, Mesh: 8, RegionSize: 3, Seed: 7,
		Workers: 2, Queue: 8, Catalogue: 4, MaxUtil: 0.2, PeriodNs: 40_000,
		PrioMix: "60:30:10", Resident: 6,
	}, stream.Options{ClassBuf: 16,
		DLQ: 128, DLQBelow: 0.6, DLQEvery: time.Millisecond})
	if res.ConfigErr != nil {
		t.Fatal(res.ConfigErr)
	}
	if res.LedgerErr != nil {
		t.Fatal(res.LedgerErr)
	}
	if res.Report.Submitted != 1200 {
		t.Fatalf("submitted = %d, want 1200", res.Report.Submitted)
	}
	if res.Report.Admitted == 0 {
		t.Fatalf("nothing admitted: %+v", res.Report)
	}
	if res.Elapsed <= 0 || res.AdmissionsPerSec() <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
}
