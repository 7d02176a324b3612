package manager

import (
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

func repairTestArrival(name string, seed int64) (*model.Application, *model.Library) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: seed, MaxUtil: 0.3,
	})
	app.Name = name
	return app, lib
}

// TestStaleTemplateIsRepairedNotRemapped: when no pooled placement fits
// the live platform, the manager refits the template — keeping what still
// fits — instead of discarding it and running the full mapper.
func TestStaleTemplateIsRepairedNotRemapped(t *testing.T) {
	plat := workload.SyntheticPlatform(4, 4, 7)
	m := New(plat, core.Config{})

	first, lib := repairTestArrival("tpl-seed", 3)
	ad, err := m.Start(first, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Remember a tile the template uses, then stop the app and saturate
	// that tile so the remembered placement no longer fits.
	victim := ad.Result.Mapping.Tile[first.MappableProcesses()[0].ID]
	if err := m.Stop(first.Name); err != nil {
		t.Fatal(err)
	}
	vt := plat.Tile(victim)
	vt.ReservedUtil = 1.0
	reservedMem := vt.FreeMem()
	vt.ReservedMem += reservedMem
	plat.BumpVersion()

	second, lib2 := repairTestArrival("tpl-replay", 3)
	out := m.Admit(second, lib2)
	if out.Err != nil {
		t.Fatalf("admission failed: %v", out.Err)
	}
	if !out.Repaired {
		t.Fatal("stale template should resolve via repair")
	}
	st := m.Stats()
	if st.StaleTemplates != 1 || st.RepairedTemplates != 1 {
		t.Fatalf("stats: StaleTemplates=%d RepairedTemplates=%d, want 1/1", st.StaleTemplates, st.RepairedTemplates)
	}
	if st.FullRemaps != 0 {
		t.Fatalf("repair path should not have run a full remap, FullRemaps=%d", st.FullRemaps)
	}
	if rate, ok := st.RepairRate(); !ok || rate != 1.0 {
		t.Fatalf("RepairRate = %v, %v; want 1.0", rate, ok)
	}
	for pid, tile := range out.Admission.Result.Mapping.Tile {
		if tile == victim {
			t.Fatalf("repaired admission still places process %d on the saturated tile", pid)
		}
	}

	// Full churn returns the ledger exactly to pristine: stop the
	// admission, undo the manual saturation, compare residuals.
	if err := m.Stop(second.Name); err != nil {
		t.Fatal(err)
	}
	vt.ReservedUtil = 0
	vt.ReservedMem -= reservedMem
	plat.BumpVersion()
	pristine := workload.SyntheticPlatform(4, 4, 7).Residual()
	if got := m.Residual(); !got.Equal(pristine) {
		t.Fatalf("ledger not pristine after churn with repair enabled:\n%+v", pristine.Diff(got))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
