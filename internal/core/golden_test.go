package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rtsm/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current mapper")

// TestHiperlan2ModesGolden pins what the mapper decides for all seven
// HIPERLAN/2 modes — placement, routes, the stream buffers step 4 sizes
// and the period and latency it measures — to a committed file. Any
// change to the mapper or to the CSDF engine under it must leave the
// file byte-identical; regenerate it only for an intended fidelity
// change, with `go test ./internal/core -run Golden -update`.
func TestHiperlan2ModesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, mode := range workload.Hiperlan2Modes {
		app := workload.Hiperlan2(mode)
		plat := workload.Hiperlan2Platform()
		res, err := NewMapper(workload.Hiperlan2Library(mode)).Map(app, plat)
		if err != nil {
			t.Fatalf("%s: %v", mode.Name, err)
		}
		fmt.Fprintf(&got, "mode %s feasible=%v refinements=%d period=%s latency=%d\n",
			mode.Name, res.Feasible, res.Refinements,
			strconv.FormatFloat(res.Analysis.Period, 'g', -1, 64), res.Analysis.Latency)
		for _, p := range app.Processes {
			tid, ok := res.Mapping.Tile[p.ID]
			if !ok {
				continue
			}
			impl := "pinned"
			if im := res.Mapping.Impl[p.ID]; im != nil {
				impl = im.String()
			}
			fmt.Fprintf(&got, "  tile   %-10s %-9s %s\n", p.Name, plat.Tile(tid).Name, impl)
		}
		for _, c := range app.StreamChannels() {
			path := res.Mapping.Route[c.ID]
			fmt.Fprintf(&got, "  route  %-18s routers=%v links=%v\n", c.Name, path.Routers, path.Links)
		}
		for _, c := range app.StreamChannels() {
			fmt.Fprintf(&got, "  buffer %-18s %d\n", c.Name, res.Mapping.Buffers[c.ID])
		}
	}

	golden := filepath.Join("testdata", "hiperlan2_modes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("mapping of the HIPERLAN/2 modes differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
	}
}
