package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

// repairCase is one stale mapping and the platform it is refit to.
type repairCase struct {
	name  string
	m     *Mapper
	stale *Result
	live  *arch.Platform
}

// loadCompetitors maps and commits synthetic chains onto plat, as
// admissions that won the race against a stale mapping would.
func loadCompetitors(plat *arch.Platform, seed int64, n int) {
	for i := 0; i < n; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 2 + i%3, Seed: seed + 100*int64(i+1),
			MaxUtil: 0.35, PeriodNs: 40_000,
		})
		app.Name = fmt.Sprintf("competitor-%d", i)
		if res, err := NewMapper(lib).Map(app, plat); err == nil && res.Feasible {
			_ = Apply(plat, res)
		}
	}
}

// repairCases builds the stale mappings the admission path refits: a
// commit that lost its race to competing admissions, a template mapped
// under one occupancy and instantiated under another, a resident whose
// tile or link failed, and HIPERLAN/2 modes whose tile was taken.
func repairCases() []repairCase {
	var cases []repairCase
	shapes := []workload.Shape{workload.ShapeChain, workload.ShapeForkJoin, workload.ShapeLayered}
	for seed := int64(0); seed < 24; seed++ {
		shape := shapes[seed%3]
		mesh := 4 + int(seed)%3
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: shape, Processes: 3 + int(seed)%5, Seed: seed, MaxUtil: 0.35, PeriodNs: 40_000,
		})
		m := NewMapper(lib)
		pristine := workload.SyntheticPlatform(mesh, mesh, seed)
		stale, err := m.Map(app, pristine)
		if err != nil || !stale.Feasible {
			continue
		}
		prefix := fmt.Sprintf("%s-%d/%dx%d", shape, seed, mesh, mesh)

		conflict := pristine.Clone()
		loadCompetitors(conflict, seed, 1+int(seed)%6)
		cases = append(cases, repairCase{prefix + "/conflict", m, stale, conflict})

		// A template remembered under one occupancy, instantiated after
		// those residents left and others arrived.
		under := pristine.Clone()
		loadCompetitors(under, seed+7, 2)
		if tmpl, err := m.Map(app, under); err == nil && tmpl.Feasible {
			later := pristine.Clone()
			loadCompetitors(later, seed+13, 1+int(seed)%4)
			cases = append(cases, repairCase{prefix + "/template", m, tmpl, later})
		}

		procs := app.MappableProcesses()
		failed := pristine.Clone()
		failed.FailTile(stale.Mapping.Tile[procs[int(seed)%len(procs)].ID])
		cases = append(cases, repairCase{prefix + "/tile-fault", m, stale, failed})

		for _, c := range app.StreamChannels() {
			if path := stale.Mapping.Route[c.ID]; len(path.Links) > 0 {
				cut := pristine.Clone()
				cut.FailLink(path.Links[int(seed)%len(path.Links)])
				loadCompetitors(cut, seed+29, int(seed)%3)
				cases = append(cases, repairCase{prefix + "/link-fault", m, stale, cut})
				break
			}
		}
	}
	for i, mode := range workload.Hiperlan2Modes {
		app := workload.Hiperlan2(mode)
		m := NewMapper(workload.Hiperlan2Library(mode))
		plat := workload.Hiperlan2Platform()
		stale, err := m.Map(app, plat)
		if err != nil || !stale.Feasible {
			continue
		}
		procs := app.MappableProcesses()
		taken := plat.Tile(stale.Mapping.Tile[procs[i%len(procs)].ID])
		taken.ReservedUtil, taken.ReservedMem = 1, taken.MemBytes
		plat.BumpVersion()
		cases = append(cases, repairCase{"hiperlan2/" + mode.Name + "/taken", m, stale, plat})
	}
	return cases
}

// repairLine renders what Repair decided for one case: the refusal, or
// feasibility, the repair marks, the energy rounded to 1e-6 and every
// placement, route and buffer.
func repairLine(c repairCase, rep *Result, err error) string {
	var b strings.Builder
	switch {
	case err != nil:
		fmt.Fprintf(&b, "refused: %v", err)
		return b.String()
	case rep == c.stale:
		b.WriteString("verbatim ")
	}
	mp := rep.Mapping
	fmt.Fprintf(&b, "feasible=%v repaired=%v pinned=%d energy=%.6f", rep.Feasible, rep.Repaired, rep.Pinned, rep.Energy.Total())
	for _, p := range mp.App.Processes {
		if tid, ok := mp.Tile[p.ID]; ok {
			fmt.Fprintf(&b, " %s@%s", p.Name, c.live.Tile(tid).Name)
		}
	}
	for _, ch := range mp.App.StreamChannels() {
		if path, ok := mp.Route[ch.ID]; ok {
			fmt.Fprintf(&b, " %s=%v", ch.Name, path.Links)
		}
		if buf, ok := mp.Buffers[ch.ID]; ok {
			fmt.Fprintf(&b, " %s#%d", ch.Name, buf)
		}
	}
	return b.String()
}

// TestRepairGolden pins what Repair decides over stale-template,
// conflict and fault cases to testdata/repair.digest: one line per case,
// a SHA-256 prefix of the case's rendered answer and the case's name.
// A change to the repair path must leave the file byte-identical;
// regenerate it only for an intended change, with `go test
// ./internal/core -run Golden -update`.
func TestRepairGolden(t *testing.T) {
	var got bytes.Buffer
	lines := map[string]string{}
	repaired := 0
	for _, c := range repairCases() {
		rep, err := c.m.Repair(c.stale, c.live.Snapshot())
		if err == nil && rep != c.stale {
			repaired++
		}
		line := repairLine(c, rep, err)
		lines[c.name] = line
		sum := sha256.Sum256([]byte(line))
		fmt.Fprintf(&got, "%s %s\n", hex.EncodeToString(sum[:8]), c.name)
	}
	if repaired < 20 {
		t.Errorf("only %d cases reached the refinement loop; the case set has drifted", repaired)
	}

	golden := filepath.Join("testdata", "repair.digest")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, g := range strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n") {
		if i >= len(wantLines) || g != wantLines[i] {
			name := g[strings.IndexByte(g, ' ')+1:]
			t.Errorf("case %s differs from %s: now %s", name, golden, lines[name])
		}
	}
	if n := len(strings.Split(got.String(), "\n")); n != len(wantLines)+1 {
		t.Errorf("%d cases, %s has %d", n-1, golden, len(wantLines))
	}
}
