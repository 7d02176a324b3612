package manager

import (
	"fmt"
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/workload"
)

// TestLoadEstimateTracksResidency pins the accounting the dead-letter
// queue gates on: the lock-free estimate rises with an admission and
// returns to exactly zero when it stops.
func TestLoadEstimateTracksResidency(t *testing.T) {
	m := New(workload.Hiperlan2Platform(), core.Config{})
	le := m.LoadEstimate()
	if le.capMilli <= 0 {
		t.Fatal("platform has no processing capacity")
	}
	if u := le.Utilization(); u != 0 {
		t.Fatalf("fresh manager at utilization %v, want 0", u)
	}

	mode := workload.Hiperlan2Modes[0]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	if _, err := m.Start(app, lib); err != nil {
		t.Fatal(err)
	}
	if u := le.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("Utilization = %v, want in (0,1]", u)
	}

	if err := m.Stop(app.Name); err != nil {
		t.Fatal(err)
	}
	if got := le.utilMilli.Load(); got != 0 {
		t.Fatalf("load leaked after stop: %d milli-tiles", got)
	}
}

// TestLoadEstimateZeroAfterChurn admits and stops a churn of synthetic
// applications and requires the estimate to land back on zero — the
// charge/release hooks must be exactly paired on every commit path.
func TestLoadEstimateZeroAfterChurn(t *testing.T) {
	m := New(workload.SyntheticPlatform(4, 4, 7), core.Config{})
	le := m.LoadEstimate()
	var admitted []string
	for i := 0; i < 12; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3, Seed: int64(i),
			MaxUtil: 0.2, PeriodNs: 40_000,
		})
		app.Name = fmt.Sprintf("churn-%d", i)
		if out := m.Admit(app, lib); out.Admitted {
			admitted = append(admitted, app.Name)
		}
	}
	if len(admitted) == 0 {
		t.Fatal("nothing admitted")
	}
	if u := le.Utilization(); u <= 0 {
		t.Fatalf("Utilization = %v with %d residents", u, len(admitted))
	}
	for _, name := range admitted {
		if err := m.Stop(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := le.utilMilli.Load(); got != 0 {
		t.Fatalf("load leaked after churn: %d milli-tiles", got)
	}
}

// TestRejectionRetryableSplit pins the retry signal: capacity rejections
// are retryable (a later attempt could admit the identical app), while
// structural rejections are not (they fail the same way every time).
func TestRejectionRetryableSplit(t *testing.T) {
	// Capacity: the single-set HIPERLAN/2 platform admits one receiver;
	// the second identical one finds no feasible mapping.
	m := New(workload.Hiperlan2Platform(), core.Config{})
	mode := workload.Hiperlan2Modes[0]
	lib := workload.Hiperlan2Library(mode)
	first := workload.Hiperlan2(mode)
	if out := m.Admit(first, lib); !out.Admitted {
		t.Fatalf("first admission failed: %v", out.Err)
	}
	second := workload.Hiperlan2(mode)
	second.Name = "rx-second"
	out := m.Admit(second, lib)
	if out.Admitted {
		t.Fatal("second receiver fit a full platform")
	}
	if !IsRetryableRejection(out.Err) {
		t.Fatalf("capacity rejection not retryable: %v", out.Err)
	}

	// Structural: an app pinned to a tile this platform does not have is
	// hopeless.
	broken := workload.Hiperlan2(mode)
	broken.Name = "rx-broken"
	for _, p := range broken.Processes {
		if p.PinnedTile != "" {
			p.PinnedTile = "NO_SUCH_TILE"
			break
		}
	}
	out = m.Admit(broken, lib)
	if out.Admitted {
		t.Fatal("admitted an app pinned to a nonexistent tile")
	}
	if IsRetryableRejection(out.Err) {
		t.Fatalf("structural rejection marked retryable: %v", out.Err)
	}
}
