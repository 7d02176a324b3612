package manager

import (
	"errors"
	"fmt"
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/workload"
)

func TestStartStopLifecycle(t *testing.T) {
	m := New(workload.Hiperlan2Platform(), core.Config{})
	mode := workload.Hiperlan2Modes[0]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)

	ad, err := m.Start(app, lib)
	if err != nil {
		t.Fatal(err)
	}
	if !ad.Result.Feasible {
		t.Fatal("admitted infeasible mapping")
	}
	if got := len(m.Running()); got != 1 {
		t.Errorf("Running = %d, want 1", got)
	}
	load := m.Load()
	if load.TilesPowered != 4 {
		t.Errorf("TilesPowered = %d, want 4", load.TilesPowered)
	}
	if load.LinkReserved <= 0 {
		t.Error("no link capacity reserved")
	}
	if m.TotalEnergy() <= 0 {
		t.Error("no energy accounted")
	}

	if err := m.Stop(app.Name); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Running()); got != 0 {
		t.Errorf("Running after stop = %d, want 0", got)
	}
	load = m.Load()
	if load.TilesPowered != 0 || load.LinkReserved != 0 {
		t.Errorf("resources leaked after stop: %+v", load)
	}
}

func TestRejectionLeavesNoResidue(t *testing.T) {
	m := New(workload.Hiperlan2Platform(), core.Config{})
	mode := workload.Hiperlan2Modes[1]
	lib := workload.Hiperlan2Library(mode)

	first := workload.Hiperlan2(mode)
	if _, err := m.Start(first, lib); err != nil {
		t.Fatal(err)
	}
	before := m.Load()

	second := workload.Hiperlan2(mode)
	second.Name = "second"
	_, err := m.Start(second, lib)
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectionError", err)
	}
	after := m.Load()
	if before != after {
		t.Errorf("rejection changed platform state: %+v vs %+v", before, after)
	}
	// After the first stops, the second fits.
	if err := m.Stop(first.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(second, lib); err != nil {
		t.Fatalf("second should be admitted after release: %v", err)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	m := New(workload.Hiperlan2Platform(), core.Config{})
	mode := workload.Hiperlan2Modes[0]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	if _, err := m.Start(app, lib); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(app, lib); err == nil {
		t.Error("duplicate name admitted")
	}
}

func TestStopUnknown(t *testing.T) {
	m := New(workload.Hiperlan2Platform(), core.Config{})
	if err := m.Stop("ghost"); err == nil {
		t.Error("stopping unknown application succeeded")
	}
}

func TestChurnInvariant(t *testing.T) {
	// Property: any sequence of admissions and releases leaves the
	// platform exactly clean once everything has stopped, and never
	// over-commits while running.
	plat := workload.SyntheticPlatform(5, 5, 9)
	m := New(plat, core.Config{})
	type runningApp struct{ name string }
	var live []runningApp
	admitted, rejected := 0, 0
	for round := 0; round < 30; round++ {
		if round%3 == 2 && len(live) > 0 {
			victim := live[0]
			live = live[1:]
			if err := m.Stop(victim.name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape:     workload.ShapeChain,
			Processes: 3 + round%4,
			Seed:      int64(round),
			MaxUtil:   0.25,
		})
		app.Name = fmt.Sprintf("app-%d", round)
		if _, err := m.Start(app, lib); err != nil {
			var rej *RejectionError
			if !errors.As(err, &rej) {
				t.Fatalf("round %d: %v", round, err)
			}
			rejected++
			continue
		}
		admitted++
		live = append(live, runningApp{name: app.Name})
		// Invariant: no tile over-committed while running.
		for _, tile := range plat.Tiles {
			if tile.ReservedUtil > 1.0+1e-9 {
				t.Fatalf("round %d: tile %s over-committed: %v", round, tile.Name, tile.ReservedUtil)
			}
			if tile.ReservedMem > tile.MemBytes {
				t.Fatalf("round %d: tile %s memory over-committed", round, tile.Name)
			}
		}
		for _, l := range plat.Links {
			if l.ReservedBps > l.CapBps {
				t.Fatalf("round %d: link %d over-committed", round, l.ID)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted in 30 rounds")
	}
	for _, r := range live {
		if err := m.Stop(r.name); err != nil {
			t.Fatal(err)
		}
	}
	for _, tile := range plat.Tiles {
		if tile.ReservedUtil > 1e-9 || tile.ReservedMem != 0 || tile.Occupants != 0 {
			t.Errorf("tile %s not clean after full churn: util=%v mem=%d occ=%d",
				tile.Name, tile.ReservedUtil, tile.ReservedMem, tile.Occupants)
		}
	}
	for _, l := range plat.Links {
		if l.ReservedBps != 0 {
			t.Errorf("link %d not clean after full churn", l.ID)
		}
	}
	t.Logf("churn: %d admitted, %d rejected", admitted, rejected)
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
