package manager

import (
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// TestResidentDoesNotPinWorkingPlatform: a resident keeps its mapping, its
// energy, the decision trace and the plan it committed — a core.Result has
// no platform to pin, the mapper's working copy goes back to its pool —
// whichever path recorded it: a cold map, a repair of a stale template, a
// fault relocation, or a preemptive admission with the relocation of its
// victims. Stop, FailTile and preemption work on what is kept, and the
// teardown ends pristine.
func TestResidentDoesNotPinWorkingPlatform(t *testing.T) {
	plat := workload.SyntheticPlatform(4, 4, 7)
	pristine := plat.Residual()
	m := New(plat, core.Config{})
	m.SetMappingReuse(true)
	check := func(how string, ad *Admission) {
		t.Helper()
		if ad.Result == nil || ad.Result.Mapping == nil || ad.plan == nil {
			t.Errorf("resident %s (%s) lost its mapping or its plan", ad.App.Name, how)
		}
	}

	first, lib := repairTestArrival("cold", 3)
	out := m.Admit(first, lib)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	check("cold map", out.Admission)
	if out.Admission.Result.Trace == nil {
		t.Error("the cold map's decision trace was dropped with the platform")
	}

	// Saturate a tile the template uses, so the next arrival of the same
	// structure is a repair.
	victim := out.Admission.Result.Mapping.Tile[first.MappableProcesses()[0].ID]
	if err := m.Stop(first.Name); err != nil {
		t.Fatal(err)
	}
	vt := plat.Tile(victim)
	vt.ReservedUtil = 1.0
	reservedMem := vt.FreeMem()
	vt.ReservedMem += reservedMem
	plat.BumpVersion()
	second, lib2 := repairTestArrival("repaired", 3)
	out = m.Admit(second, lib2)
	if out.Err != nil || !out.Repaired {
		t.Fatalf("stale template should resolve via repair: %+v", out)
	}
	check("repair", out.Admission)
	vt.ReservedUtil = 0
	vt.ReservedMem -= reservedMem
	plat.BumpVersion()

	// Fail a tile under the resident: the evacuation relocates it.
	failed := out.Admission.Result.Mapping.Tile[second.MappableProcesses()[0].ID]
	rep := m.FailTile(failed)
	if len(rep.Relocated) != 1 {
		t.Fatalf("fault evacuation relocated %v, dropped %v; want the resident relocated", rep.Relocated, rep.Dropped)
	}
	check("fault relocation", m.Running()[0])
	if !m.RestoreTile(failed) {
		t.Fatal("tile did not restore")
	}

	// Fill the mesh, then let a critical arrival displace residents.
	fillBestEffort(t, m, beChain)
	crit, lib3 := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 3, Seed: 1,
		MaxUtil: 0.30, PeriodNs: 400_000, Priority: model.Critical,
	})
	crit.Name = "critical"
	out = m.Admit(crit, lib3)
	if !out.Admitted || len(out.Preempted) == 0 {
		t.Fatalf("critical arrival should preempt its way in: %+v", out)
	}
	check("preemptive admission", out.Admission)
	for _, ad := range m.Running() {
		check("resident after preemption", ad)
		if err := m.Stop(ad.App.Name); err != nil {
			t.Fatalf("stop %s: %v", ad.App.Name, err)
		}
	}
	if final := m.Residual(); !final.Equal(pristine) {
		t.Fatalf("ledger not pristine after teardown:\n%+v", pristine.Diff(final))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
