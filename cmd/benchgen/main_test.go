package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rtsm/internal/workload"
)

func TestRunSmoke(t *testing.T) {
	file := filepath.Join(t.TempDir(), "bundle.json")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{[]string{"-kind", "layered", "-procs", "6", "-mesh", "5", "-seed", "3"}, 0, ""},
		{[]string{"-kind", "chain", "-out", file}, 0, ""},
		{[]string{"-kind", "ring"}, 1, `unknown kind "ring"`},
		{[]string{"-mode", "nope"}, 1, `unknown mode "nope"`},
		{[]string{"-undefined"}, 2, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("benchgen %v: exit %d, want %d\n%s", tc.args, code, tc.code, &stderr)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("benchgen %v: stderr lacks %q:\n%s", tc.args, tc.stderr, &stderr)
		}
		if tc.code != 0 || stdout.Len() == 0 {
			continue // nothing emitted, or emitted to -out
		}
		// What it prints is what cmd/spatialmap reads.
		if _, _, _, err := workload.ReadBundle(&stdout); err != nil {
			t.Errorf("benchgen %v: output is not a bundle: %v", tc.args, err)
		}
	}
	if matches, _ := filepath.Glob(file); len(matches) != 1 {
		t.Error("-out wrote no file")
	}
}
