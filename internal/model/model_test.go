package model

import (
	"encoding/json"
	"strings"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
)

func chainApp(t *testing.T) *Application {
	t.Helper()
	app := NewApplication("chain", QoS{PeriodNs: 4000})
	src := app.AddPinnedProcess("src", "AD")
	a := app.AddProcess("a")
	b := app.AddProcess("b")
	snk := app.AddPinnedProcess("snk", "Sink")
	ctrl := app.AddControlProcess("ctrl")
	app.Connect(src, a, 80, 4)
	app.Connect(a, b, 64, 4)
	app.Connect(b, snk, 52, 4)
	app.ConnectPorts(ctrl, "out", b, "mode", 1, 1)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

func TestApplicationQueries(t *testing.T) {
	app := chainApp(t)
	if got := app.MappableProcesses(); len(got) != 2 || got[0].Name != "a" {
		t.Errorf("MappableProcesses = %v", got)
	}
	// The control channel is excluded from the stream.
	if got := app.StreamChannels(); len(got) != 3 {
		t.Errorf("StreamChannels = %d, want 3", len(got))
	}
	b := app.ProcessByName("b")
	if got := app.ChannelsOf(b.ID); len(got) != 2 {
		t.Errorf("ChannelsOf(b) = %d, want 2", len(got))
	}
	if app.ProcessByName("zzz") != nil {
		t.Error("unknown process should be nil")
	}
}

func TestChannelTraffic(t *testing.T) {
	app := chainApp(t)
	c := app.Channels[0]
	if got := c.BytesPerPeriod(); got != 320 {
		t.Errorf("BytesPerPeriod = %d, want 320", got)
	}
}

func TestValidateRejections(t *testing.T) {
	app := NewApplication("bad", QoS{PeriodNs: 0})
	app.AddProcess("p")
	if err := app.Validate(); err == nil || !strings.Contains(err.Error(), "period") {
		t.Errorf("missing-period error, got %v", err)
	}

	app2 := NewApplication("bad2", QoS{PeriodNs: 100})
	p := app2.AddProcess("p")
	q := app2.AddProcess("q")
	ch := app2.Connect(p, q, 1, 1)
	ch.TokensPerPeriod = 0
	if err := app2.Validate(); err == nil {
		t.Error("zero-token channel accepted")
	}
	ch.TokensPerPeriod = 1
	ch.Dst = p.ID
	ch.Src = p.ID
	if err := app2.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestDuplicateProcessPanics(t *testing.T) {
	app := NewApplication("dup", QoS{PeriodNs: 1})
	app.AddProcess("p")
	defer func() {
		if recover() == nil {
			t.Error("duplicate process did not panic")
		}
	}()
	app.AddProcess("p")
}

func testImpl() *Implementation {
	return &Implementation{
		Process:         "a",
		TileType:        arch.TypeARM,
		WCET:            csdf.Vals(18, 32, 18),
		In:              map[string]csdf.Pattern{"in": csdf.Vals(8, 0, 0)},
		Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 8)},
		EnergyPerPeriod: 62,
		MemBytes:        1024,
	}
}

func TestImplementationValidate(t *testing.T) {
	im := testImpl()
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	im.In["in"] = csdf.Vals(8) // wrong phase count
	if err := im.Validate(); err == nil {
		t.Error("phase mismatch accepted")
	}
}

func TestCyclesPerPeriod(t *testing.T) {
	app := chainApp(t)
	a := app.ProcessByName("a")
	im := testImpl()
	// Channel src→a carries 80 tokens/period; port "in" consumes 8 per
	// cycle ⇒ 10 cycles/period × 68 cycles each = 680.
	got, err := im.CyclesPerPeriod(app, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != 680 {
		t.Errorf("CyclesPerPeriod = %d, want 680", got)
	}
}

func TestCyclesPerPeriodInconsistent(t *testing.T) {
	app := NewApplication("x", QoS{PeriodNs: 100})
	p := app.AddProcess("a")
	q := app.AddProcess("b")
	app.Connect(p, q, 7, 1) // 7 tokens per period
	im := testImpl()        // consumes 8 per cycle: 7 % 8 != 0
	im.Process = "b"
	if _, err := im.CyclesPerPeriod(app, q); err == nil {
		t.Error("inconsistent rate accepted")
	}
}

func TestLibrary(t *testing.T) {
	lib := NewLibrary()
	im1 := testImpl()
	im2 := testImpl()
	im2.TileType = arch.TypeMontium
	lib.Add(im1).Add(im2)
	if got := lib.For("a"); len(got) != 2 || got[0] != im1 {
		t.Errorf("For(a) = %v", got)
	}
	if got := lib.ForType("a", arch.TypeMontium); got != im2 {
		t.Errorf("ForType = %v", got)
	}
	if lib.ForType("a", "DSP") != nil {
		t.Error("unknown type should be nil")
	}
	if lib.Processes() != 1 {
		t.Errorf("Processes = %d", lib.Processes())
	}
}

func TestLibraryAddPanicsOnBadImpl(t *testing.T) {
	lib := NewLibrary()
	bad := testImpl()
	bad.WCET = nil
	defer func() {
		if recover() == nil {
			t.Error("bad implementation did not panic")
		}
	}()
	lib.Add(bad)
}

func TestApplicationJSONRoundTrip(t *testing.T) {
	app := chainApp(t)
	data, err := json.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	var back Application
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Rebind(); err != nil {
		t.Fatal(err)
	}
	if back.Name != app.Name || len(back.Processes) != len(app.Processes) || len(back.Channels) != len(app.Channels) {
		t.Errorf("round trip lost structure: %+v", back)
	}
	if back.ProcessByName("b") == nil {
		t.Error("Rebind did not restore name index")
	}
	if back.QoS != app.QoS {
		t.Errorf("QoS mismatch: %v vs %v", back.QoS, app.QoS)
	}
}

// TestPriorityClamp pins where a wild class lands: below the range on
// BestEffort, above it on Critical, valid classes on themselves.
func TestPriorityClamp(t *testing.T) {
	for p, want := range map[Priority]Priority{
		-7: BestEffort, -1: BestEffort, BestEffort: BestEffort, Standard: Standard,
		Critical: Critical, Critical + 1: Critical, 1 << 40: Critical,
	} {
		if got := p.Clamp(); got != want {
			t.Errorf("Priority(%d).Clamp() = %v, want %v", int(p), got, want)
		}
	}
}
