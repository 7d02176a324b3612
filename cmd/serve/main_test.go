package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func serve(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestSoakSmoke runs a tiny storm through the default mode: plain,
// journaled, and profiled.
func TestSoakSmoke(t *testing.T) {
	base := []string{"-arrivals", "400", "-mesh", "8", "-catalogue", "4"}
	with := func(extra ...string) []string { return append(base[:len(base):len(base)], extra...) }
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	for _, args := range [][]string{
		base,
		with("-journal", filepath.Join(t.TempDir(), "soak.journal")),
		with("-cpuprofile", cpu, "-memprofile", mem),
	} {
		code, out, errw := serve(args...)
		if code != 0 {
			t.Fatalf("serve %v: exit %d\n%s%s", args, code, out, errw)
		}
		if !strings.Contains(out, "ledger ok         true") {
			t.Fatalf("serve %v: no clean ledger line:\n%s", args, out)
		}
	}
	for _, profile := range []string{cpu, mem} {
		if st, err := os.Stat(profile); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", profile, err)
		}
	}
	// A profile that cannot be written fails the run, at its start or end.
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if code, out, errw := serve(with(flag, filepath.Join(t.TempDir(), "no-such-dir", "p.prof"))...); code != 1 {
			t.Errorf("serve %s into a missing directory: exit %d, want 1\n%s%s", flag, code, out, errw)
		}
	}
}

// TestChaosSmoke is the CI chaos step as a test: the checked-in script
// at 300 arrivals, crash recovery included.
func TestChaosSmoke(t *testing.T) {
	code, out, errw := serve("-chaos", "../../scripts/chaos_smoke.chaos",
		"-arrivals", "300", "-mesh", "8", "-catalogue", "4",
		"-journal", filepath.Join(t.TempDir(), "chaos.journal"))
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errw)
	}
	for _, want := range []string{"1 crashes", "2 replay checks passed", "ledger ok         true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestRejectedFlagCombinations pins exit code 2 and the message for
// every configuration serve refuses to run, retired flags included: a
// stale script must fail loudly, not silently run one mesh.
func TestRejectedFlagCombinations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-arrivals", "10", "-priomix", "1:x"}, "priority mix"},
		{[]string{"-arrivals", "10", "-priomix", "4611686018427387904:4611686018427387904"}, "priority mix"},
		{[]string{"-arrivals", "10", "-priomix", "9223372036854775807:9223372036854775807:1"}, "priority mix"},
		{[]string{"-chaos", "no-such-script"}, "no-such-script"},
		{[]string{"-chaos", "../../scripts/chaos_smoke.chaos", "-arrivals", "300"}, "crash steps need -journal"},
		{[]string{"-arrivals", "10", "-mesh", "-3"}, "Mesh -3 is negative"},
		{[]string{"-arrivals", "10", "-period", "-5"}, "PeriodNs -5 is negative"},
		{[]string{"-arrivals", "10", "-util", "5"}, "MaxUtil 5 is outside [0, 1]"},
		{[]string{"-arrivals", "10", "-util", "-1"}, "MaxUtil -1 is outside [0, 1]"},
		{[]string{"-arrivals", "10", "-regionsize", "-2"}, "RegionSize -2 is negative"},
		{[]string{"-arrivals", "-5"}, "Apps -5 is negative"},
		{[]string{"-arrivals", "10", "-window", "-1s"}, "-window -1s is negative"},
		{[]string{"-arrivals", "10", "-syncevery", "-1"}, "-syncevery -1 is negative"},
		{[]string{"-cow=false"}, "flag provided but not defined"},
		{[]string{"-meshes", "2"}, "flag provided but not defined"},
		{[]string{"-batch", "8"}, "flag provided but not defined"},
		{[]string{"-dlq", "8"}, "flag provided but not defined"},
		{[]string{"-slo", "20ms"}, "flag provided but not defined"},
	} {
		code, out, errw := serve(tc.args...)
		if code != 2 {
			t.Errorf("serve %v: exit %d, want 2\n%s%s", tc.args, code, out, errw)
		}
		if !strings.Contains(errw, tc.want) {
			t.Errorf("serve %v: stderr lacks %q:\n%s", tc.args, tc.want, errw)
		}
	}
}
