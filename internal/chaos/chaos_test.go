package chaos

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtsm/internal/churn"
	"rtsm/internal/journal"
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
	if !rep.LedgerOK {
		t.Fatalf("aggregate ledger broken: %+v", rep.Stream)
	}
	if rep.CriticalShed != 0 {
		t.Fatalf("chaos shed %d Critical arrivals", rep.CriticalShed)
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
	if rep.FaultsInjected == 0 {
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
	if !rep.LedgerOK || rep.Stream.Admitted == 0 {
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
