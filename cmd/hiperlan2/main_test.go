package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{nil, 0, "feasible: true", ""},
		{[]string{"-modes"}, 0, "QPSK3/4", ""},
		{[]string{"-mode", "64QAM3/4", "-energy", "-v"}, 0, "Independent check:", ""},
		{[]string{"-dot"}, 0, "digraph", ""},
		{[]string{"-mode", "nope"}, 1, "", `unknown mode "nope"`},
		{[]string{"-undefined"}, 2, "", "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("hiperlan2 %v: exit %d, want %d\n%s%s", tc.args, code, tc.code, &stdout, &stderr)
		}
		if !strings.Contains(stdout.String(), tc.stdout) || (tc.code == 0) != (stdout.Len() > 0) {
			t.Errorf("hiperlan2 %v: stdout lacks %q:\n%s", tc.args, tc.stdout, &stdout)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("hiperlan2 %v: stderr lacks %q:\n%s", tc.args, tc.stderr, &stderr)
		}
	}
}
