package churn

import (
	"testing"
)

// TestChurnSmokeSmall runs a small contended churn end to end — the
// scenario loop cmd/churn drives — and checks the things the driver
// checks: arrivals were admitted, the ledger invariants held throughout,
// and after full churn the reservation ledger returned exactly to
// pristine. The CI test step runs this under -race, which is the point:
// four admission workers hammer the platform lock while the collector
// stops residents.
func TestChurnSmokeSmall(t *testing.T) {
	opts := Defaults()
	opts.Apps = 40
	opts.Mesh = 6
	opts.Catalogue = 8
	r := Run(opts)
	if r.LedgerErr != nil {
		t.Fatalf("ledger invariant violated: %v", r.LedgerErr)
	}
	if r.Stats.Admitted == 0 {
		t.Fatal("churn admitted nothing; workload broken")
	}
	if !r.Clean {
		t.Fatalf("ledger not pristine after full churn: %d tiles, %d links drifted",
			len(r.Drift.Tiles), len(r.Drift.Links))
	}
}

// TestChurnShardedRegionsClean runs the churn scenario on a mesh
// partitioned into four regions, arrivals pinned round-robin to
// per-region stream endpoints. The CI test step runs this under -race;
// the ledger must still return exactly to pristine.
func TestChurnShardedRegionsClean(t *testing.T) {
	opts := Defaults()
	opts.Apps = 80
	opts.Mesh = 8
	opts.Catalogue = 8
	opts.RegionSize = 4
	r := Run(opts)
	if r.LedgerErr != nil {
		t.Fatalf("ledger invariant violated: %v", r.LedgerErr)
	}
	if r.Stats.Admitted == 0 {
		t.Fatal("sharded churn admitted nothing; workload broken")
	}
	if !r.Clean {
		t.Fatalf("ledger not pristine after sharded churn: %d tiles, %d links drifted",
			len(r.Drift.Tiles), len(r.Drift.Links))
	}
}

// TestChurnRepairResolvesMajorityOfRetries is the acceptance bar of the
// incremental remapping engine: under a contended 4-worker churn, at
// least half of the commit-conflict retries and stale-template
// instantiations resolve via core.Repair — the stale mapping is refitted
// and committed — without a full four-step remap. The scenario keeps
// eight applications resident on an 8×8 mesh with a 16-structure
// catalogue, enough load that template placements go stale continuously
// while the platform retains room to repair into.
func TestChurnRepairResolvesMajorityOfRetries(t *testing.T) {
	opts := Defaults()
	opts.Apps = 200
	opts.Mesh = 8
	opts.Catalogue = 16
	opts.Resident = 8
	r := Run(opts)
	if r.LedgerErr != nil {
		t.Fatalf("ledger invariant violated: %v", r.LedgerErr)
	}
	if !r.Clean {
		t.Fatal("ledger not pristine after churn with repair enabled")
	}
	st := r.Stats
	rate, ok := st.RepairRate()
	if !ok {
		t.Fatalf("scenario produced no conflict retries or stale templates (conflicts=%d, templates=%d); not contended",
			st.ConflictRetries, st.StaleTemplates)
	}
	if st.StaleTemplates == 0 {
		t.Fatal("scenario produced no stale templates; reuse path not exercised")
	}
	t.Logf("repair rate %.1f%%: %d of %d retry/stale rounds (%d conflict retries, %d stale templates, %d full remaps)",
		100*rate, st.RepairedConflicts+st.RepairedTemplates, st.ConflictRetries+st.StaleTemplates,
		st.ConflictRetries, st.StaleTemplates, st.FullRemaps)
	if rate < 0.5 {
		t.Fatalf("repair resolved only %.1f%% of retry/stale rounds, want >= 50%%", 100*rate)
	}
}
