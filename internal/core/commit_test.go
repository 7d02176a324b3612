package core

import (
	"errors"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

// TestApplyRemoveRoundTrip pins the ledger property Stop relies on: after
// Apply then Remove the platform's residual capacity is exactly what it
// was, and the version advanced once per committed change.
func TestApplyRemoveRoundTrip(t *testing.T) {
	plat := workload.Hiperlan2Platform()
	mode := workload.Hiperlan2Modes[0]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)

	before := plat.Residual()
	v0 := plat.Version()
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("map failed: %v", err)
	}
	if plat.Version() != v0 {
		t.Fatal("Map mutated the caller's platform version")
	}
	if err := Apply(plat, res); err != nil {
		t.Fatal(err)
	}
	if plat.Version() != v0+1 {
		t.Fatalf("Apply should bump version once: %d -> %d", v0, plat.Version())
	}
	if plat.Residual().Equal(before) {
		t.Fatal("Apply reserved nothing")
	}
	Remove(plat, res)
	if got := plat.Residual(); !got.Equal(before) {
		t.Fatalf("residual not restored after Remove:\nbefore %+v\nafter  %+v", before, got)
	}
	if plat.Version() != v0+2 {
		t.Fatalf("Remove should bump version: %d", plat.Version())
	}
}

// TestApplyDetectsStaleSnapshot is the commit-time half of optimistic
// concurrency: a mapping computed on a snapshot must fail validation —
// with a ConflictError and zero mutation — when a competing admission
// claimed the resources first.
func TestApplyDetectsStaleSnapshot(t *testing.T) {
	plat := workload.Hiperlan2Platform()
	mode := workload.Hiperlan2Modes[0]
	lib := workload.Hiperlan2Library(mode)

	// Two admissions compute their mappings against the same pristine
	// snapshot; the HIPERLAN/2 platform has exactly one set of Montium
	// tiles, so both mappings claim the same single-occupancy tiles.
	snap := plat.Snapshot()
	first := workload.Hiperlan2(mode)
	second := workload.Hiperlan2(mode)
	second.Name = "rx-late"
	resFirst, err := NewMapper(lib).Map(first, snap.Plat)
	if err != nil || !resFirst.Feasible {
		t.Fatalf("first map failed: %v", err)
	}
	resSecond, err := NewMapper(lib).Map(second, snap.Plat)
	if err != nil || !resSecond.Feasible {
		t.Fatalf("second map failed: %v", err)
	}

	if err := Apply(plat, resFirst); err != nil {
		t.Fatal(err)
	}
	mid := plat.Residual()
	if err := Validate(plat, resSecond); err == nil {
		t.Fatal("Validate accepted a conflicting mapping")
	}
	err = Apply(plat, resSecond)
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("Apply = %v, want *ConflictError", err)
	}
	if conflict.App != "rx-late" {
		t.Errorf("conflict names %q, want rx-late", conflict.App)
	}
	// The conflict is attributed per resource, not as an opaque string:
	// every violation names the exhausted tile or link and how far the
	// mapping falls short.
	if len(conflict.Violations) == 0 {
		t.Fatal("ConflictError carries no violations")
	}
	for _, v := range conflict.Violations {
		if v.Kind == ResLink {
			if v.Link < 0 || int(v.Link) >= len(plat.Links) {
				t.Errorf("link violation names no link: %+v", v)
			}
			continue
		}
		if v.Tile < 0 || int(v.Tile) >= len(plat.Tiles) || plat.Tile(v.Tile).Name != v.TileName {
			t.Errorf("tile violation names no tile: %+v", v)
		}
		if v.Need <= v.Avail {
			t.Errorf("violation %v not short on capacity: need %.3f avail %.3f", v.Kind, v.Need, v.Avail)
		}
	}
	if got := plat.Residual(); !got.Equal(mid) {
		t.Fatalf("failed Apply mutated the platform:\nbefore %+v\nafter  %+v", mid, got)
	}
	// The losing admission remains committable once the winner leaves.
	Remove(plat, resFirst)
	if err := Apply(plat, resSecond); err != nil {
		t.Fatalf("second admission should commit after release: %v", err)
	}
}

// TestViolationsAttributeFailedLink pins the run-time fault path: a plan
// holding bandwidth on a link that has since failed must report a
// ResLinkFailed violation naming the link, with no tile. This is the exact shape Repair
// sees when FailLink evacuates a resident whose routes crossed the link.
func TestViolationsAttributeFailedLink(t *testing.T) {
	plat := workload.SyntheticPlatform(4, 4, 7)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape:     workload.ShapeChain,
		Processes: 4,
		Seed:      3,
		MaxUtil:   0.3,
	})
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("map failed: %v", err)
	}
	plan, err := NewPlan(plat, res)
	if err != nil {
		t.Fatal(err)
	}
	var failed arch.LinkID = -1
	for _, l := range plat.Links {
		if plan.UsesLink(l.ID) {
			failed = l.ID
			break
		}
	}
	if failed < 0 {
		t.Skip("mapping reserved no link bandwidth")
	}
	plat.FailLink(failed)
	vs := plan.Violations(plat)
	found := false
	for _, v := range vs {
		if v.Kind != ResLinkFailed {
			continue
		}
		found = true
		if v.Link != failed || v.Tile != arch.NoTile {
			t.Fatalf("failed-link violation misattributed: %+v", v)
		}
	}
	if !found {
		t.Fatalf("no ResLinkFailed violation for link %d in %+v", failed, vs)
	}
}

// TestValidateMatchesApply checks Validate is a faithful dry run: wherever
// it says yes, Apply succeeds; wherever it says no, Apply fails the same
// way and changes nothing.
func TestValidateMatchesApply(t *testing.T) {
	plat := workload.SyntheticPlatform(4, 4, 7)
	for seed := int64(0); seed < 12; seed++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape:     workload.ShapeChain,
			Processes: 3 + int(seed)%4,
			Seed:      seed,
			MaxUtil:   0.4,
		})
		res, err := NewMapper(lib).Map(app, plat)
		if err != nil || !res.Feasible {
			continue
		}
		before := plat.Residual()
		vErr := Validate(plat, res)
		aErr := Apply(plat, res)
		if (vErr == nil) != (aErr == nil) {
			t.Fatalf("seed %d: Validate=%v but Apply=%v", seed, vErr, aErr)
		}
		if aErr != nil && !plat.Residual().Equal(before) {
			t.Fatalf("seed %d: failed Apply mutated platform", seed)
		}
	}
}
