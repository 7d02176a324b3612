package manager

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// procTiles lists the platform's failable processing tiles (stream
// endpoints and filler tiles carry no residents worth evacuating).
func procTiles(plat *arch.Platform) []arch.TileID {
	var ids []arch.TileID
	for _, t := range plat.Tiles {
		switch t.Type {
		case arch.TypeSource, arch.TypeSink, arch.TypeNone:
			continue
		}
		ids = append(ids, t.ID)
	}
	return ids
}

// replayStream is crash recovery over in-memory segments, as the drivers
// do it over files: verify the chain, then ReplayEvents the sealed events
// into plat. It returns the rebuilt manager and the torn-tail count.
func replayStream(plat *arch.Platform, segments ...[]byte) (*Manager, int, error) {
	readers := make([]io.Reader, len(segments))
	for i, seg := range segments {
		readers[i] = bytes.NewReader(seg)
	}
	rec, err := journal.Recover(readers...)
	if err != nil {
		return nil, 0, err
	}
	m, err := ReplayEvents(plat, core.Config{}, rec.Events)
	return m, rec.Tail, err
}

// runningNames is the manager's resident set, sorted for comparison.
func runningNames(m *Manager) []string {
	var names []string
	for _, ad := range m.Running() {
		names = append(names, ad.App.Name)
	}
	sort.Strings(names)
	return names
}

// TestCrashReplayReproducesLivePlatform is the crash-recovery pin:
// randomized concurrent churn with mid-run tile faults journals through
// a hash-chained writer, the run quiesces and seals (the durable
// checkpoint a crash would recover to), and then keeps working without
// ever sealing again — the torn tail. Replaying the journal into a
// fresh pristine platform must discard exactly the torn tail and
// reproduce the sealed live platform bit-for-bit: every reservation
// float, every occupancy count, every Failed flag. This is what makes
// the journal a recovery log rather than a trace: append order equals
// commit order, and each event carries the exact
// aggregated deltas its live commit applied.
func TestCrashReplayReproducesLivePlatform(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	replayBase := plat.Clone() // pristine twin for the recovery
	oracleBase := plat.Clone() // and one for the plan-per-event oracle
	pristine := plat.Residual()
	tiles := procTiles(plat)
	if len(tiles) == 0 {
		t.Fatal("no processing tiles on the synthetic platform")
	}

	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{BatchSize: 16})
	m := New(plat, core.Config{})
	m.SetJournal(jw)

	// Phase 1: four workers churn mixed-priority arrivals across all
	// regions (straddlers included) while faults cycle through the
	// processing tiles. Roughly a third of the admissions stay resident.
	const workers = 4
	const perWorker = 30
	prios := []model.Priority{model.BestEffort, model.BestEffort, model.Standard, model.Critical}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				app, lib := workload.Synthetic(workload.SynthOptions{
					Shape: workload.ShapeChain, Processes: 3 + n%3, Seed: int64(n % 7),
					MaxUtil: 0.12, PeriodNs: 40_000,
					SrcTile:  fmt.Sprintf("SRC%d", n%4),
					SinkTile: fmt.Sprintf("SINK%d", (n+n/4)%4),
					Priority: prios[n%len(prios)],
				})
				app.Name = fmt.Sprintf("crash-%d", n)
				out := m.Admit(app, lib)
				if out.Admitted && n%3 != 0 {
					// Best effort teardown: a victim mid-evacuation or a
					// fault-dropped resident refuses the stop; both are
					// legitimate journaled outcomes.
					_ = m.Stop(app.Name)
				}
			}
		}(w)
	}
	wg.Add(1)
	var faultsFired int
	go func() {
		defer wg.Done()
		for k := 0; k < 10; k++ {
			id := tiles[(k*5)%len(tiles)]
			if rep := m.FailTile(id); rep.Failed {
				faultsFired++
			}
			if k%2 == 1 {
				m.RestoreTile(id)
			}
		}
	}()
	wg.Wait()
	if faultsFired == 0 {
		t.Fatal("no fault injected; fixture broken")
	}

	// Quiesced seal: everything journaled so far becomes durable. This
	// is the state a crash after this instant must recover to — capture
	// it bit-for-bit.
	jw.Flush()
	if err := jw.Err(); err != nil {
		t.Fatalf("journal writer: %v", err)
	}
	sealed := plat.Clone()
	sealedNames := runningNames(m)
	sealedLen := buf.Len()

	// Phase 2, the torn tail: more committed work — reservation changes
	// and a restore — that is appended and acked but never sealed.
	// Sync drains the writer without writing a seal record; abandoning
	// the writer here (no Close) is the simulated crash.
	torn := 0
	for i := 0; i < 20 && torn == 0; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3, Seed: int64(i),
			MaxUtil: 0.05, PeriodNs: 40_000,
			SrcTile: "SRC0", SinkTile: "SINK0",
		})
		app.Name = fmt.Sprintf("torn-%d", i)
		if out := m.Admit(app, lib); out.Admitted {
			torn++
		}
	}
	for _, id := range plat.FailedTiles() {
		m.RestoreTile(id) // guaranteed torn event even if no arrival fit
		torn++
	}
	if torn == 0 {
		t.Fatal("torn phase produced no events; fixture broken")
	}
	jw.Sync()
	if err := jw.Err(); err != nil {
		t.Fatalf("journal writer: %v", err)
	}
	if buf.Len() == sealedLen {
		t.Fatal("torn events never reached the journal stream")
	}

	rm, tail, err := replayStream(replayBase, buf.Bytes())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if tail == 0 {
		t.Fatal("replay discarded no torn tail; crash simulation broken")
	}
	if err := arch.PlatformsIdentical(sealed, replayBase); err != nil {
		t.Fatalf("replayed platform differs from sealed live platform: %v", err)
	}
	gotNames := runningNames(rm)
	if len(gotNames) != len(sealedNames) {
		t.Fatalf("replayed resident set: got %d residents, want %d\n got %v\nwant %v",
			len(gotNames), len(sealedNames), gotNames, sealedNames)
	}
	for i := range gotNames {
		if gotNames[i] != sealedNames[i] {
			t.Fatalf("replayed resident set differs at %d: got %q, want %q", i, gotNames[i], sealedNames[i])
		}
	}
	if err := rm.CheckInvariants(); err != nil {
		t.Fatalf("replayed manager invariants: %v", err)
	}

	// The direct replay against the plan-per-event oracle, on the same
	// verified events: same platform, residents and invariants.
	events, _, err := journal.Verify(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	om, err := replayOracle(oracleBase, core.Config{}, events)
	if err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	if err := arch.PlatformsIdentical(oracleBase, replayBase); err != nil {
		t.Fatalf("direct replay differs from the plan-per-event oracle: %v", err)
	}
	if got, want := fmt.Sprint(gotNames), fmt.Sprint(runningNames(om)); got != want {
		t.Fatalf("direct replay residents %s, oracle %s", got, want)
	}
	if err := om.CheckInvariants(); err != nil {
		t.Fatalf("oracle invariants: %v", err)
	}
	// The plans materialised for the survivors release what replay
	// reserved: stopping them all leaves the pristine residual.
	for _, name := range gotNames {
		if err := rm.Stop(name); err != nil {
			t.Fatalf("stop recovered resident %s: %v", name, err)
		}
	}
	for _, id := range replayBase.FailedTiles() {
		rm.RestoreTile(id)
	}
	if got := replayBase.Residual(); !got.Equal(pristine) {
		t.Fatal("stopping every recovered resident did not restore the pristine residual")
	}
	t.Logf("crash replay: %d residents at seal, %d faults, %d torn events discarded", len(sealedNames), faultsFired, tail)
}

// TestReplayRejectsCorruptStream pins the failure mode: a journal whose
// chain does not verify must not rebuild a manager at all.
func TestReplayRejectsCorruptStream(t *testing.T) {
	plat := workload.SyntheticPlatform(4, 4, 7)
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{BatchSize: 2})
	m := New(plat, core.Config{})
	m.SetJournal(jw)
	for i := 0; i < 6; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3, Seed: int64(i),
			MaxUtil: 0.05, PeriodNs: 40_000,
		})
		app.Name = fmt.Sprintf("corrupt-%d", i)
		m.Admit(app, lib)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < 100 {
		t.Fatalf("journal too short to corrupt: %d bytes", len(raw))
	}
	raw[len(raw)/2] ^= 0x20
	if _, _, err := replayStream(workload.SyntheticPlatform(4, 4, 7), raw); err == nil {
		t.Fatal("replay accepted a corrupted journal")
	}
}

// TestReplayRotatedPair pins journal rotation end to end: a live
// run rotates its journal mid-stream, and Recover plus ReplayEvents
// over the resulting segment pair rebuild the sealed live platform bit-for-bit,
// exactly as a single unrotated journal would. It also pins the failure
// modes: segments out of order and a lone later segment offered as a
// full history must both be rejected.
func TestReplayRotatedPair(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 321, 4)
	replayBase := plat.Clone()

	var seg1, seg2 bytes.Buffer
	jw := journal.NewWriter(&seg1, journal.Options{BatchSize: 8})
	m := New(plat, core.Config{})
	m.SetJournal(jw)

	admit := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			app, lib := workload.Synthetic(workload.SynthOptions{
				Shape: workload.ShapeChain, Processes: 3 + i%3, Seed: int64(i % 5),
				MaxUtil: 0.08, PeriodNs: 40_000,
				SrcTile:  fmt.Sprintf("SRC%d", i%4),
				SinkTile: fmt.Sprintf("SINK%d", i%4),
			})
			app.Name = fmt.Sprintf("rot-%d", i)
			if out := m.Admit(app, lib); out.Admitted && i%4 == 0 {
				_ = m.Stop(app.Name)
			}
		}
	}
	admit(0, 25)
	if err := jw.Rotate(&seg2, nil); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	admit(25, 50)
	if err := jw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if seg1.Len() == 0 || seg2.Len() == 0 {
		t.Fatalf("rotation did not split the stream: %d / %d bytes", seg1.Len(), seg2.Len())
	}

	rm, tail, err := replayStream(replayBase, seg1.Bytes(), seg2.Bytes())
	if err != nil {
		t.Fatalf("replay segments: %v", err)
	}
	if tail != 0 {
		t.Fatalf("closed journal left %d torn events", tail)
	}
	if err := arch.PlatformsIdentical(plat, replayBase); err != nil {
		t.Fatalf("rotated replay differs from live platform: %v", err)
	}
	want := runningNames(m)
	got := runningNames(rm)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed resident set differs:\n got %v\nwant %v", got, want)
	}
	if err := rm.CheckInvariants(); err != nil {
		t.Fatalf("replayed manager invariants: %v", err)
	}

	// Reordered segments break the seed chain.
	if _, _, err := replayStream(plat.Clone(), seg2.Bytes(), seg1.Bytes()); err == nil {
		t.Fatal("replay accepted out-of-order segments")
	}
	// A later segment alone is an incomplete history: its snapshot head
	// declares a non-genesis seed, so offering it as segment 0 of a
	// chain must fail loudly rather than replay half the events.
	if _, err := journal.Recover(bytes.NewReader(seg2.Bytes())); err == nil {
		t.Fatal("replay accepted a mid-chain segment as a full history")
	}
}
