package manager

import (
	"fmt"
	"sync"
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/workload"
)

// TestEpochSnapshotSharingStress drives concurrent admissions and
// departures with copy-on-write epoch snapshots on (the defaults) and,
// under -race, pins the sharing protocol: many workers map against the
// same frozen base snapshot while commits fault regions in on the live
// platform, the ledger stays invariant-clean and returns to pristine,
// and the statistics show that sharing actually happened — admissions
// served from an existing epoch snapshot plus base captures add up to
// more than the captures alone.
func TestEpochSnapshotSharingStress(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	pristine := plat.Residual()
	m := New(plat, core.Config{})
	// No template reuse: every admission must take (or share) a base
	// snapshot, so the sharing counters are actually exercised. A
	// non-zero lag makes sharing frequent regardless of how commits
	// interleave with captures on the host running the test.
	m.SetMappingReuse(false)
	m.epochLag = 4

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				app, lib := workload.Synthetic(workload.SynthOptions{
					Shape: workload.ShapeChain, Processes: 3 + n%3, Seed: int64(n % 6),
					MaxUtil: 0.12, PeriodNs: 40_000,
					SrcTile: fmt.Sprintf("SRC%d", n%4), SinkTile: fmt.Sprintf("SINK%d", n%4),
				})
				app.Name = fmt.Sprintf("epoch-%d", n)
				out := m.Admit(app, lib)
				if out.Admitted {
					if err := m.Stop(app.Name); err != nil {
						t.Errorf("stop %s: %v", app.Name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("ledger corrupted under shared epoch snapshots: %v", err)
	}
	if final := m.Residual(); !final.Equal(pristine) {
		d := pristine.Diff(final)
		t.Fatalf("reservations leaked: %d tiles, %d links drifted", len(d.Tiles), len(d.Links))
	}
	st := m.Stats()
	if st.Admitted == 0 {
		t.Fatal("stress run admitted nothing")
	}
	if st.Snapshots == 0 {
		t.Fatal("no base snapshots recorded; counter plumbing broken")
	}
	if st.SnapshotsShared == 0 {
		t.Fatalf("no admission shared an epoch snapshot across %d concurrent arrivals (Snapshots=%d)",
			st.Admitted+st.Rejected, st.Snapshots)
	}
	if st.CoWFaults == 0 {
		t.Fatal("no CoW faults recorded despite commits on shared snapshots")
	}
	t.Logf("epoch stress: %d admitted, %d base snapshots, %d shared, %d CoW faults",
		st.Admitted, st.Snapshots, st.SnapshotsShared, st.CoWFaults)
}
