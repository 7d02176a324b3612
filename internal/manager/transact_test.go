package manager

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// TestTransactRollsBackLostSwap pins the preemption swap's lost race, the
// one branch of the transaction no end-to-end test reaches on demand: two
// residents are released for an arrival whose placement a competitor took
// after the arrival was mapped. The transaction must refuse with the
// arrival's ConflictError, put both residents back, and journal the
// release-and-recommit pairs so that replay repeats the same float
// arithmetic and lands on the live platform bit for bit.
func TestTransactRollsBackLostSwap(t *testing.T) {
	plat := workload.SyntheticPlatform(6, 6, 1)
	replayBase := plat.Clone()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	m := New(plat, core.Config{})
	m.SetJournal(jw)

	mk := func(name string, seed int64) (*model.Application, *model.Library) {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 4, Seed: seed, MaxUtil: 0.6, PeriodNs: 40_000})
		app.Name = name
		return app, lib
	}
	var removals []change
	for i, name := range []string{"resident-a", "resident-b"} {
		app, lib := mk(name, int64(i))
		out := m.Admit(app, lib)
		if !out.Admitted {
			t.Fatalf("%s: %v", name, out.Err)
		}
		removals = append(removals, change{out.Admission.plan, journal.EvPreemptRelease, name, out.Priority})
	}

	// Map the arrival, then let a structurally identical competitor be
	// admitted on the same state: the mapper is deterministic, so it takes
	// exactly the placement the arrival's plan reserves.
	arrival, lib := mk("arrival", 2)
	res, err := (&core.Mapper{Lib: lib, Cfg: m.cfg}).Map(arrival, m.Snapshot().Plat)
	if err != nil || !res.Feasible {
		t.Fatalf("arrival does not map: %v", err)
	}
	plan, err := core.NewPlan(plat, res)
	if err != nil {
		t.Fatal(err)
	}
	competitor, clib := mk("competitor", 2)
	if out := m.Admit(competitor, clib); !out.Admitted {
		t.Fatalf("competitor: %v", out.Err)
	}

	before := m.Residual()
	err = m.transact(removals, change{plan, journal.EvAdmit, arrival.Name, model.BestEffort})
	var conflict *core.ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("swap against a taken placement returned %v, want a *core.ConflictError", err)
	}
	if after := m.Residual(); !after.Equal(before) {
		d := before.Diff(after)
		t.Fatalf("rollback left %d tiles and %d links changed", len(d.Tiles), len(d.Links))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(runningNames(m)), "[competitor resident-a resident-b]"; got != want {
		t.Fatalf("residents after rollback: %s, want %s", got, want)
	}

	jw.Flush()
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	events, tail, err := journal.Verify(bytes.NewReader(buf.Bytes()))
	if err != nil || tail != 0 {
		t.Fatalf("journal: %v (%d torn)", err, tail)
	}
	// admit ×2, admit competitor, then release ×2 and relocate ×2.
	var types []journal.EventType
	for _, e := range events {
		types = append(types, e.Type)
	}
	if got, want := fmt.Sprint(types), "[admit admit admit preempt-release preempt-release relocate relocate]"; got != want {
		t.Fatalf("journaled %s, want %s", got, want)
	}
	rm, err := ReplayEvents(replayBase, core.Config{}, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.PlatformsIdentical(plat, replayBase); err != nil {
		t.Fatalf("replay of the rolled-back swap differs from the live platform: %v", err)
	}
	if got, want := fmt.Sprint(runningNames(rm)), fmt.Sprint(runningNames(m)); got != want {
		t.Fatalf("replayed residents %s, want %s", got, want)
	}
}

// TestFaultStormAndPreemptionShareOneRegion is TestFaultStormAccounting-
// UnderChurn with nothing kept apart: the fault storm, best-effort churn
// and preempting Critical arrivals all work region 0, so evacuation
// releases, preemption swaps, relocations of both kinds, stops and plain
// commits contend for the same resources and the same residents. Under
// -race it pins what the one transaction is for: whatever the
// interleaving, both victim ledgers partition, the ledger tears down to
// pristine and the journal — appended inside the locked sections —
// replays into the live platform bit for bit.
func TestFaultStormAndPreemptionShareOneRegion(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	replayBase := plat.Clone()
	pristine := plat.Residual()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{BatchSize: 32})
	m := New(plat, core.Config{})
	m.SetJournal(jw)

	var stormTiles []arch.TileID
	for _, id := range procTiles(plat) {
		if pos := plat.Pos(id); pos.X < 4 && pos.Y < 4 { // region 0: SRC0/SINK0's block
			stormTiles = append(stormTiles, id)
		}
	}
	arrive := func(name string, n int, util float64, period int64, prio model.Priority) bool {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3 + n%2, Seed: int64(n % 5),
			MaxUtil: util, PeriodNs: period,
			SrcTile: "SRC0", SinkTile: "SINK0", Priority: prio,
		})
		app.Name = name
		return m.Admit(app, lib).Admitted
	}
	// stop departs a resident unless a fault or a preemption got to it
	// first; a claimed one is retried until its outcome is known.
	stop := func(name string) {
		for errors.Is(m.Stop(name), ErrRelocating) {
			runtime.Gosched()
		}
	}
	// fill admits best-effort residents of structure n into region 0
	// until one is refused: the region is then too full for another
	// arrival of that structure unless someone leaves or is displaced.
	fill := func(tag string, n int) {
		for i := 0; i < 100 && arrive(fmt.Sprintf("%s-%d", tag, i), n, 0.25, 400_000, model.BestEffort); i++ {
		}
	}
	// Saturate region 0 so every fault has residents to evacuate.
	for i := 0; i < 100 && arrive(fmt.Sprintf("bg-%d", i), i, 0.25, 400_000, model.BestEffort); i++ {
	}

	// others is the fault storm and the churn; wg is everyone.
	var wg, others sync.WaitGroup
	var reports []FaultReport
	wg.Add(1)
	others.Add(1)
	go func() {
		defer wg.Done()
		defer others.Done()
		for k := 0; k < 40; k++ {
			id := stormTiles[k%len(stormTiles)]
			if rep := m.FailTile(id); rep.Failed {
				reports = append(reports, rep)
			}
			m.RestoreTile(id)
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		others.Add(1)
		go func(w int) {
			defer wg.Done()
			defer others.Done()
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("churn-%d-%d", w, i)
				if arrive(name, w*40+i, 0.10, 40_000, model.BestEffort) {
					stop(name)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The fault storm drops residents and the churn goroutines'
		// departures free room, so the region is refilled with the
		// Critical arrival's own structure right before it arrives. The
		// last one waits for the storm and the churn to end, so nothing
		// frees room between its refill and its arrival: it cannot get
		// in without displacing a best-effort resident, whatever the
		// interleaving. Critical arrivals stay.
		for i := 0; i < 12; i++ {
			if i == 11 {
				others.Wait()
			}
			fill(fmt.Sprintf("refill-%d", i), i)
			arrive(fmt.Sprintf("crit-%d", i), i, 0.25, 400_000, model.Critical)
		}
	}()
	wg.Wait()

	var relocated, dropped uint64
	for fi, rep := range reports {
		if len(rep.Relocated)+len(rep.Dropped) != len(rep.Residents) {
			t.Fatalf("fault %d: %d residents, %d relocated + %d dropped",
				fi, len(rep.Residents), len(rep.Relocated), len(rep.Dropped))
		}
		relocated += uint64(len(rep.Relocated))
		dropped += uint64(len(rep.Dropped))
	}
	st := m.Stats()
	if st.FaultRelocated != relocated || st.FaultDropped != dropped {
		t.Fatalf("fault stats disagree with reports: relocated %d/%d, dropped %d/%d",
			st.FaultRelocated, relocated, st.FaultDropped, dropped)
	}
	if st.Relocations+st.Evictions != st.Preemptions {
		t.Fatalf("preemption ledger leaks: %d preempted, %d relocated + %d evicted",
			st.Preemptions, st.Relocations, st.Evictions)
	}
	if len(reports) == 0 || st.Preemptions == 0 {
		t.Fatalf("fixture too weak: %d faults, %d preemptions", len(reports), st.Preemptions)
	}

	for _, tl := range plat.Tiles {
		m.RestoreTile(tl.ID)
	}
	jw.Flush()
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	if _, tail, err := replayStream(replayBase, buf.Bytes()); err != nil || tail != 0 {
		t.Fatalf("replay: %v (%d torn)", err, tail)
	}
	if err := arch.PlatformsIdentical(plat, replayBase); err != nil {
		t.Fatalf("replayed platform differs from the live one: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, ad := range m.Running() {
		if err := m.Stop(ad.App.Name); err != nil {
			t.Fatalf("teardown stop %s: %v", ad.App.Name, err)
		}
	}
	if final := m.Residual(); !final.Equal(pristine) {
		d := pristine.Diff(final)
		t.Fatalf("ledger not pristine after teardown: %d tiles, %d links drifted", len(d.Tiles), len(d.Links))
	}
	t.Logf("%d faults (%d relocated, %d dropped), %d preemptions (%d relocated, %d evicted), %d conflicts",
		len(reports), relocated, dropped, st.Preemptions, st.Relocations, st.Evictions, st.Conflicts)
}
