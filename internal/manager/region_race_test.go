package manager

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rtsm/internal/core"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// TestShardedCommitStraddlingRegions hammers a 4-region platform with
// admissions whose stream endpoints deliberately straddle region
// boundaries (src in one quadrant, sink in another), interleaved with
// region-local ones, while departures run concurrently. Under -race the
// reservation ledger must stay data-race-free and invariant-clean
// throughout.
func TestShardedCommitStraddlingRegions(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	m := New(plat, core.Config{})
	pristine := m.Residual()

	// Endpoint pairs: four region-local, plus straddlers crossing every
	// quadrant boundary and both diagonals.
	pairs := [][2]string{
		{"SRC0", "SINK0"}, {"SRC1", "SINK1"}, {"SRC2", "SINK2"}, {"SRC3", "SINK3"},
		{"SRC0", "SINK1"}, {"SRC1", "SINK3"}, {"SRC2", "SINK0"}, {"SRC3", "SINK2"},
		{"SRC0", "SINK3"}, {"SRC1", "SINK2"},
	}
	const workers = 4
	const perWorker = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				pair := pairs[n%len(pairs)]
				app, lib := workload.Synthetic(workload.SynthOptions{
					Shape: workload.ShapeChain, Processes: 3 + n%3, Seed: int64(n % 7),
					MaxUtil: 0.10, PeriodNs: 40_000,
					SrcTile: pair[0], SinkTile: pair[1],
				})
				app.Name = fmt.Sprintf("straddle-%d", n)
				out := m.Admit(app, lib)
				if out.Admitted {
					if err := m.Stop(app.Name); err != nil {
						errs <- fmt.Errorf("stop %s: %w", app.Name, err)
						return
					}
				}
				if n%10 == 0 {
					if err := m.CheckInvariants(); err != nil {
						errs <- fmt.Errorf("invariants mid-run: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Admitted == 0 {
		t.Fatal("nothing admitted; straddle workload broken")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	if final := m.Residual(); !final.Equal(pristine) {
		d := pristine.Diff(final)
		t.Fatalf("ledger not pristine after full churn: %d tiles, %d links drifted",
			len(d.Tiles), len(d.Links))
	}
	t.Logf("straddle churn: %d admitted, %d rejected, %d conflicts, %d template hits",
		st.Admitted, st.Rejected, st.Conflicts, st.TemplateHits)
}

// TestPreemptionInRegionADoesNotBlockRegionB stresses the priority
// planner's locking claim under -race: preemption work confined to
// region 0 — hypothetical eviction, the victim/arrival swap, victim
// relocation — holds the platform lock only for its short transactions,
// so best-effort churn whose footprints stay in region 3 keeps
// committing throughout the storm. The test drives a
// continuous preemption storm in region 0 (critical arrivals onto a
// saturated quadrant) against a fixed churn quota in region 3 and
// requires the quota to complete while the storm is provably still
// running, with the ledger race-free, invariant-clean and pristine
// after teardown.
func TestPreemptionInRegionADoesNotBlockRegionB(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	pristine := plat.Residual()
	m := New(plat, core.Config{})

	mkRegion := func(name string, seed int64, region int, procs int, util float64, prio model.Priority) (*model.Application, *model.Library) {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: procs, Seed: seed,
			MaxUtil: util, PeriodNs: 400_000,
			SrcTile: fmt.Sprintf("SRC%d", region), SinkTile: fmt.Sprintf("SINK%d", region),
			Priority: prio,
		})
		app.Name = name
		return app, lib
	}

	// Saturate region 0 with best-effort residents so critical arrivals
	// there must preempt.
	for i := 0; i < 200; i++ {
		app, lib := mkRegion(fmt.Sprintf("a-bg-%d", i), int64(i%5), 0, 3, 0.30, model.BestEffort)
		if out := m.Admit(app, lib); !out.Admitted {
			break
		}
	}

	stormDone := make(chan struct{})
	stormPreempting := make(chan struct{}) // closed after the first preemption
	stop := make(chan struct{})
	var stormAdmitted, stormPreempted int
	go func() {
		defer close(stormDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			app, lib := mkRegion(fmt.Sprintf("a-crit-%d", i), int64(i%3), 0, 3, 0.30, model.Critical)
			out := m.Admit(app, lib)
			if out.Admitted {
				stormAdmitted++
				if stormPreempted += len(out.Preempted); stormPreempted > 0 {
					select {
					case <-stormPreempting:
					default:
						close(stormPreempting)
					}
				}
				if err := m.Stop(app.Name); err != nil && !errors.Is(err, ErrRelocating) {
					t.Errorf("storm stop %s: %v", app.Name, err)
					return
				}
			}
		}
	}()

	// Wait for the storm to provably preempt before starting the quota:
	// on a single-CPU host the scheduler may otherwise run the whole
	// quota before ever picking the storm goroutine up, and the test
	// would measure nothing. (The admission path getting faster is what
	// exposed this — the quota used to be slow enough to lose the race.)
	const quota = 40
	deadline := time.After(60 * time.Second)
	select {
	case <-stormPreempting:
	case <-deadline:
		t.Fatal("preemption storm never preempted; fixture broken")
	}
	for i := 0; i < quota; i++ {
		done := make(chan Outcome, 1)
		go func(i int) {
			app, lib := mkRegion(fmt.Sprintf("b-%d", i), int64(i%4), 3, 3, 0.10, model.BestEffort)
			out := m.Admit(app, lib)
			if out.Admitted {
				if err := m.Stop(app.Name); err != nil {
					t.Errorf("stop %s: %v", app.Name, err)
				}
			}
			done <- out
		}(i)
		select {
		case <-done:
		case <-deadline:
			t.Fatal("region-3 churn starved behind the region-0 preemption storm")
		}
	}
	close(stop)
	<-stormDone
	if stormAdmitted == 0 || stormPreempted == 0 {
		t.Fatalf("storm did not exercise preemption (admitted %d, preempted %d)", stormAdmitted, stormPreempted)
	}

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after storm: %v", err)
	}
	for _, ad := range m.Running() {
		if err := m.Stop(ad.App.Name); err != nil {
			t.Fatalf("teardown stop %s: %v", ad.App.Name, err)
		}
	}
	if final := m.Residual(); !final.Equal(pristine) {
		d := pristine.Diff(final)
		t.Fatalf("ledger not pristine after storm teardown: %d tiles, %d links drifted",
			len(d.Tiles), len(d.Links))
	}
}

// TestShardedDegenerateSingleRegion pins the degenerate case the rest of
// the suite relies on: a manager over a platform with one SRC0/SINK0 pair
// gives every arrival of a deterministic sequence a consistent outcome and
// keeps its ledger clean.
func TestShardedDegenerateSingleRegion(t *testing.T) {
	plat := workload.SyntheticPlatform(6, 6, 42)
	m := New(plat, core.Config{})
	for i := 0; i < 6; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3, Seed: int64(i),
			MaxUtil: 0.10, PeriodNs: 40_000,
		})
		app.Name = fmt.Sprintf("single-%d", i)
		out := m.Admit(app, lib)
		if out.Err != nil && out.Admitted {
			t.Fatalf("inconsistent outcome for %s", app.Name)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
