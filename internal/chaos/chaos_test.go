package chaos

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtsm/internal/churn"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/stream"
)

// TestParseScript pins the DSL: good lines parse into sorted steps, bad
// lines fail loudly.
func TestParseScript(t *testing.T) {
	src := `
# warmup, then trouble
@200 spike 2ms 50
@100 failtile 3
@150 faillink 5
@250 restoretile 3
@300 drain
@400 crash
`
	sc, err := ParseScript(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Steps) != 6 {
		t.Fatalf("parsed %d steps, want 6", len(sc.Steps))
	}
	for i := 1; i < len(sc.Steps); i++ {
		if sc.Steps[i].At < sc.Steps[i-1].At {
			t.Fatalf("steps not sorted: %+v", sc.Steps)
		}
	}
	if sc.Crashes() != 1 || sc.Drains() != 1 {
		t.Fatalf("crashes %d, drains %d, want 1/1", sc.Crashes(), sc.Drains())
	}
	if sc.Steps[2].Op != OpSpike || sc.Steps[2].Dur != 2*time.Millisecond || sc.Steps[2].N != 50 {
		t.Fatalf("spike step parsed wrong: %+v", sc.Steps[2])
	}

	for _, bad := range []string{
		"100 failtile 3",      // missing @
		"@-5 failtile 1",      // negative index
		"@10 explode",         // unknown op
		"@10 failtile",        // missing ordinal
		"@10 spike 2ms",       // missing count
		"@10 spike banana 50", // bad duration
		"@10 drain now",       // extra args
	} {
		if _, err := ParseScript(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted bad line %q", bad)
		}
	}
}

// TestChaosSoak is the harness's own invariant check, run with -race in
// CI: a seeded script injects tile and link faults, a latency spike, a
// graceful drain and a mid-run crash (with journal replay verified
// bit-for-bit inside Run) against the live HTTP door — and the
// aggregate ledger must still balance exactly, with Critical never
// shed.
func TestChaosSoak(t *testing.T) {
	script, err := ParseScript(strings.NewReader(`
@100 failtile 3
@150 faillink 7
@200 spike 1ms 40
@250 restoretile 3
@300 drain
@350 crash
@450 restorelink 7
`))
	if err != nil {
		t.Fatal(err)
	}
	jf, err := journal.OpenFile(filepath.Join(t.TempDir(), "chaos.journal"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	so := churn.Defaults()
	so.Apps, so.Seed, so.RegionSize, so.Queue = 600, 42, 3, 64
	so.Catalogue, so.MaxUtil, so.PrioMix = 6, 0.12, "60:30:10"
	so.Journal = jf
	rep, err := Run(script, Options{
		Stack: so,
		Server: stream.Options{
			DLQ: 256, DLQBelow: 0.8, DLQEvery: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stream.LedgerOK() {
		t.Fatalf("aggregate ledger broken: %+v", rep.Stream)
	}
	if shed := rep.Stream.ShedByClass[model.Critical]; shed != 0 {
		t.Fatalf("chaos shed %d Critical arrivals", shed)
	}
	if rep.Arrivals != 600 {
		t.Fatalf("issued %d arrivals, want 600", rep.Arrivals)
	}
	// One replay check for the crash step, one at the end of the run.
	if rep.Incarnations != 2 || rep.Crashes != 1 || rep.ReplayChecks != 2 {
		t.Fatalf("incarnations %d, crashes %d, replay checks %d, want 2/1/2",
			rep.Incarnations, rep.Crashes, rep.ReplayChecks)
	}
	if rep.Drains != 1 || rep.Spikes != 1 {
		t.Fatalf("drains %d, spikes %d, want 1/1", rep.Drains, rep.Spikes)
	}
	if rep.Stats.FaultsInjected == 0 {
		t.Fatal("no fault took effect; script ordinals broken")
	}
	if rep.Stream.Admitted == 0 || rep.Door.Requests == 0 {
		t.Fatalf("run admitted nothing: %+v / %+v", rep.Stream, rep.Door)
	}
	// The door submits each request at most once: capacity rejections
	// are retried behind it, by the DLQ, inside one submission.
	if rep.Stream.Submitted > rep.Door.Requests {
		t.Fatalf("%d submissions for %d door requests", rep.Stream.Submitted, rep.Door.Requests)
	}
	t.Logf("chaos soak: %+v", rep)
}

// TestChaosReplaysJournalWithoutCrashStep pins the end-of-run oracle: a
// journaled run whose script never crashes still recovers its own
// journal after the final teardown and finds the replayed platform and
// resident set identical to the live ones (Run returns an error
// otherwise).
func TestChaosReplaysJournalWithoutCrashStep(t *testing.T) {
	script, err := ParseScript(strings.NewReader("@40 failtile 2\n@80 drain\n@100 restoretile 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	jf, err := journal.OpenFile(filepath.Join(t.TempDir(), "nocrash.journal"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	so := churn.Defaults()
	so.Apps, so.Seed, so.RegionSize, so.Catalogue = 150, 7, 3, 4
	so.Journal = jf
	rep, err := Run(script, Options{Stack: so})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 0 || rep.Incarnations != 1 || rep.ReplayChecks != 1 {
		t.Fatalf("crashes %d, incarnations %d, replay checks %d, want 0/1/1",
			rep.Crashes, rep.Incarnations, rep.ReplayChecks)
	}
	if !rep.Stream.LedgerOK() || rep.Stream.Admitted == 0 {
		t.Fatalf("run admitted nothing or broke the ledger: %+v", rep.Stream)
	}
}

// TestChaosRejectsBadConfig pins the guard rails: crash steps without a
// journal and steps beyond the run must refuse to start.
func TestChaosRejectsBadConfig(t *testing.T) {
	crash := Script{Steps: []Step{{At: 10, Op: OpCrash}}}
	if _, err := Run(crash, Options{Stack: churn.Options{Apps: 100}}); err == nil {
		t.Fatal("crash without a journal started")
	}
	late := Script{Steps: []Step{{At: 1000, Op: OpDrain}}}
	if _, err := Run(late, Options{Stack: churn.Options{Apps: 100}}); err == nil {
		t.Fatal("step beyond the run started")
	}
}

// checkClean fails the test unless the run ended with the ledger
// exact, the reservation invariants holding and the platform pristine.
func checkClean(t *testing.T, rep Report) {
	t.Helper()
	if !rep.Stream.LedgerOK() {
		t.Fatalf("aggregate ledger broken: %+v", rep.Stream)
	}
	if rep.InvariantErr != nil {
		t.Fatalf("ledger invariant violated: %v", rep.InvariantErr)
	}
	if !rep.Pristine || len(rep.Drift.Tiles)+len(rep.Drift.Links) > 0 {
		t.Fatalf("ledger not pristine after full churn: %d tiles, %d links drifted",
			len(rep.Drift.Tiles), len(rep.Drift.Links))
	}
}

// TestChurnSmokeSmall runs a small contended churn end to end through
// the door and checks what every run checks: arrivals were admitted, the
// ledger invariants held throughout, and after full churn the
// reservation ledger returned exactly to pristine. The CI test step runs
// this under -race, which is the point: four admission workers hammer
// the platform lock while the collector stops residents.
func TestChurnSmokeSmall(t *testing.T) {
	so := churn.Defaults()
	so.Apps, so.Mesh, so.Catalogue = 40, 6, 8
	rep, err := Run(Script{}, Options{Stack: so})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep)
	if rep.Stats.Admitted == 0 {
		t.Fatal("churn admitted nothing; workload broken")
	}
}

// TestChurnShardedRegionsClean runs the churn scenario on a mesh
// partitioned into four regions, arrivals pinned round-robin to
// per-region stream endpoints. The CI test step runs this under -race;
// the ledger must still return exactly to pristine.
func TestChurnShardedRegionsClean(t *testing.T) {
	so := churn.Defaults()
	so.Apps, so.Mesh, so.Catalogue, so.RegionSize = 80, 8, 8, 4
	rep, err := Run(Script{}, Options{Stack: so})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep)
	if rep.Stats.Admitted == 0 {
		t.Fatal("sharded churn admitted nothing; workload broken")
	}
}

// TestChurnRepairResolvesMajorityOfRetries is the acceptance bar of the
// incremental remapping engine: under a contended 4-worker churn through
// the door, at least half of the commit-conflict retries and
// stale-template instantiations resolve via core.Repair — the stale
// mapping is refitted and committed — without a full four-step remap.
// The scenario keeps eight applications resident on an 8×8 mesh with a
// 16-structure catalogue, enough load that template placements go stale
// continuously while the platform retains room to repair into.
func TestChurnRepairResolvesMajorityOfRetries(t *testing.T) {
	so := churn.Defaults()
	so.Apps, so.Mesh, so.Catalogue, so.Resident = 200, 8, 16, 8
	rep, err := Run(Script{}, Options{Stack: so})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep)
	st := rep.Stats
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

// TestDirectSoakSmoke runs the storm cmd/serve runs by default — an empty
// script on the Direct target, open-loop into the stream server — and
// checks that the ledger and invariants hold.
func TestDirectSoakSmoke(t *testing.T) {
	rep, err := Run(Script{}, Options{
		Stack: churn.Options{
			Apps: 1200, Mesh: 8, RegionSize: 3, Seed: 7,
			Workers: 2, Queue: 8, Catalogue: 4, MaxUtil: 0.2, PeriodNs: 40_000,
			PrioMix: "60:30:10", Resident: 6,
		},
		Server: stream.Options{ClassBuf: 16, DLQ: 128, DLQBelow: 0.6, DLQEvery: time.Millisecond},
		Target: Direct,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, rep)
	if rep.Stream.Submitted != 1200 {
		t.Fatalf("submitted = %d, want 1200", rep.Stream.Submitted)
	}
	if rep.Stream.Admitted == 0 {
		t.Fatalf("nothing admitted: %+v", rep.Stream)
	}
	if rep.Elapsed <= 0 || rep.Stats.Admitted == 0 || rep.Door.Requests != 0 {
		t.Fatalf("throughput not measured, or the door was used: %+v", rep)
	}
}

// TestRunEndsPristine leaves a tile and a link failed when the last
// arrival is in. Run must restore both and stop every resident before
// its pristine check, on each target, whether or not the script crashed
// the incarnation in between.
func TestRunEndsPristine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target Target
		script string
	}{
		{"door", Door, "@40 failtile 2\n@60 faillink 5\n"},
		{"door/crash", Door, "@40 failtile 2\n@60 faillink 5\n@80 crash\n"},
		{"direct", Direct, "@40 failtile 2\n@60 faillink 5\n"},
		{"direct/crash", Direct, "@40 failtile 2\n@60 faillink 5\n@80 crash\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			script, err := ParseScript(strings.NewReader(tc.script))
			if err != nil {
				t.Fatal(err)
			}
			so := churn.Defaults()
			so.Apps, so.Seed, so.RegionSize, so.Catalogue = 120, 7, 3, 4
			if script.Crashes() > 0 {
				if so.Journal, err = journal.OpenFile(filepath.Join(t.TempDir(), "p.journal"), 0, false); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := Run(script, Options{Stack: so, Target: tc.target})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.FaultsInjected != 2 || rep.Stats.Restores != 0 {
				t.Fatalf("faults %d, restores %d, want 2/0", rep.Stats.FaultsInjected, rep.Stats.Restores)
			}
			if rep.FaultRecoverTotal < rep.FaultRecoverMax || rep.FaultRecoverMax <= 0 {
				t.Fatalf("recover total %v, max %v", rep.FaultRecoverTotal, rep.FaultRecoverMax)
			}
			checkClean(t, rep)
			if rep.Stream.Admitted == 0 {
				t.Fatalf("run admitted nothing: %+v", rep.Stream)
			}
		})
	}
}

// TestFaultCountsSurviveCrash fails a tile under residents and then
// crashes the incarnation, which restarts the manager's counters. The
// report's sum still counts the residents the fault relocated and
// dropped.
func TestFaultCountsSurviveCrash(t *testing.T) {
	script, err := ParseScript(strings.NewReader("@60 failtile 0\n@80 crash\n"))
	if err != nil {
		t.Fatal(err)
	}
	// On a 4×4 mesh eight residents leave no tile idle for long.
	so := churn.Defaults()
	so.Apps, so.Seed, so.Mesh = 120, 7, 4
	if so.Journal, err = journal.OpenFile(filepath.Join(t.TempDir(), "f.journal"), 0, false); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(script, Options{Stack: so})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	t.Logf("faults %d: relocated %d, dropped %d", st.FaultsInjected, st.FaultRelocated, st.FaultDropped)
	if st.FaultsInjected != 1 || rep.Crashes != 1 {
		t.Fatalf("faults %d, crashes %d, want 1/1", st.FaultsInjected, rep.Crashes)
	}
	if st.FaultRelocated+st.FaultDropped == 0 {
		t.Fatal("the fault evacuated no resident")
	}
	checkClean(t, rep)
}

// TestStatsCoverEveryIncarnation crashes a door run twice and drains it
// once. The manager's counters must cover every incarnation, as the
// ledger does: each arrival the stream server admitted is one admitted
// manager round of its class, and the torn admissions a crash discards
// count nowhere.
func TestStatsCoverEveryIncarnation(t *testing.T) {
	script, err := ParseScript(strings.NewReader("@40 crash\n@80 drain\n@120 crash\n"))
	if err != nil {
		t.Fatal(err)
	}
	so := churn.Defaults()
	so.Apps, so.Seed = 160, 3
	if so.Journal, err = journal.OpenFile(filepath.Join(t.TempDir(), "s.journal"), 0, false); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(script, Options{Stack: so})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	var classAdmitted, rounds uint64
	for _, c := range st.ByClass {
		classAdmitted += c.Admitted
		rounds += c.Admitted + c.Rejected
	}
	t.Logf("ledger %d admitted, %d rejected; manager %d admitted over %d rounds; %d torn discarded",
		rep.Stream.Admitted, rep.Stream.Rejected, st.Admitted, rounds, rep.TornDiscarded)
	if rep.Crashes != 2 || rep.TornDiscarded == 0 {
		t.Fatalf("crashes %d, torn %d: the script no longer crashes under load", rep.Crashes, rep.TornDiscarded)
	}
	if st.Admitted != rep.Stream.Admitted || classAdmitted != st.Admitted {
		t.Fatalf("manager admitted %d (%d by class), ledger %d", st.Admitted, classAdmitted, rep.Stream.Admitted)
	}
	if rounds < rep.Stream.Admitted+rep.Stream.Rejected {
		t.Fatalf("%d class rounds for %d ledger outcomes", rounds, rep.Stream.Admitted+rep.Stream.Rejected)
	}
	checkClean(t, rep)
}

// FuzzParseScript feeds the script parser arbitrary text. It must never
// panic, and whatever it accepts must already satisfy everything Run
// assumes without re-checking: steps in arrival order, each with a known
// operation, a non-negative arrival index and arguments in range.
func FuzzParseScript(f *testing.F) {
	for _, seed := range []string{
		"# warmup, then trouble\n@200 spike 2ms 50\n@100 failtile 3\n@150 faillink 5\n@250 restoretile 3\n@220 restorelink 5\n@300 drain\n@400 crash\n",
		"100 failtile 3", "@-5 failtile 1", "@10 explode", "@10 failtile", "@10 failtile -1",
		"@10 spike 2ms", "@10 spike banana 50", "@10 spike -2ms 5", "@10 spike 2ms 0", "@10 drain now",
		"@9223372036854775807 crash", "@", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := ParseScript(strings.NewReader(src))
		if err != nil {
			return
		}
		for i, st := range sc.Steps {
			if st.At < 0 || (i > 0 && st.At < sc.Steps[i-1].At) {
				t.Fatalf("step %d of %q: arrival index %d negative or out of order", i, src, st.At)
			}
			switch st.Op {
			case OpFailTile, OpFailLink, OpRestoreTile, OpRestoreLink:
				if st.N < 0 || st.Dur != 0 {
					t.Fatalf("step %d of %q: bad fault arguments %+v", i, src, st)
				}
			case OpSpike:
				if st.N <= 0 || st.Dur <= 0 {
					t.Fatalf("step %d of %q: bad spike arguments %+v", i, src, st)
				}
			case OpDrain, OpCrash:
				if st.N != 0 || st.Dur != 0 {
					t.Fatalf("step %d of %q: %s carries arguments %+v", i, src, st.Op, st)
				}
			default:
				t.Fatalf("step %d of %q: unknown op %q accepted", i, src, st.Op)
			}
		}
	})
}
