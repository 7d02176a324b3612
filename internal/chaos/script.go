// Package chaos is the one scenario loop of the admission stack and its
// deterministic fault harness: a seeded script of faults, latency
// spikes, graceful drains and mid-run crashes is executed at exact
// arrival indices while arrivals flow through the stream server, over a
// live HTTP front door or submitted in process (Target), and the run's
// aggregate ledger is checked for the robustness invariants — every
// arrival ends in exactly one outcome, Critical is never shed, a
// crash-recovered platform is bit-identical to the pre-crash sealed
// checkpoint, and the mesh returns to pristine once the run is over.
//
// Scripts are plain text, one step per line:
//
//	# comment
//	@100 failtile 3        fail the 3rd processing tile
//	@150 faillink 5        fail link 5
//	@200 restoretile 3     bring the tile back
//	@220 restorelink 5     bring the link back
//	@300 spike 2ms 50      delay the next 50 backend outcomes by 2ms
//	@400 drain             drain the door + server, rebuild over the same mesh
//	@500 crash             kill -9 simulation: journal replay, then restart
//
// A step at @N is a barrier: every arrival with index < N has been
// submitted — on the Door target, has received its HTTP response —
// before the step runs, and no arrival ≥ N is submitted until it
// finishes. That is what makes a chaos run reproducible enough to assert
// exact invariants on. An empty script is a plain arrival storm.
package chaos

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Op is one chaos step's operation.
type Op string

// The scriptable operations.
const (
	// OpFailTile fails the Nth processing tile (stream endpoints are
	// never failed — they anchor the synthetic workload).
	OpFailTile Op = "failtile"
	// OpFailLink fails the Nth NoC link.
	OpFailLink Op = "faillink"
	// OpRestoreTile restores the Nth processing tile.
	OpRestoreTile Op = "restoretile"
	// OpRestoreLink restores the Nth NoC link.
	OpRestoreLink Op = "restorelink"
	// OpSpike delays the next N backend outcomes by Dur — an injected
	// latency spike whose late deliveries the ledger and the drain order
	// must absorb.
	OpSpike Op = "spike"
	// OpDrain gracefully drains the front door (if any) and the stream
	// server (readiness first, in-flight arrivals finish), then rebuilds
	// both over the same mesh. The ledger accumulates across the rebuild.
	OpDrain Op = "drain"
	// OpCrash simulates kill -9: the door drains, the journal seals a
	// checkpoint, a torn phase appends unsealed work, the process state
	// is discarded, and recovery truncates + replays the journal into a
	// pristine platform — which must be bit-identical to the sealed
	// checkpoint — before a new incarnation serves the rest of the run.
	OpCrash Op = "crash"
)

// Step is one scripted action, fired when the arrival stream reaches At.
type Step struct {
	// At is the arrival index this step precedes: all arrivals < At have
	// been submitted (on the Door target, completed), none ≥ At have.
	At int
	// Op selects the action.
	Op Op
	// N is the resource ordinal for fault/restore steps and the affected
	// outcome count for spike.
	N int
	// Dur is the injected latency for spike steps.
	Dur time.Duration
}

// Script is a parsed chaos script: steps sorted by arrival index.
type Script struct {
	// Steps fire in order; equal At values fire in file order.
	Steps []Step
}

// Crashes counts the script's crash steps.
func (s Script) Crashes() int { return s.count(OpCrash) }

// Drains counts the script's drain steps.
func (s Script) Drains() int { return s.count(OpDrain) }

func (s Script) count(op Op) int {
	n := 0
	for _, st := range s.Steps {
		if st.Op == op {
			n++
		}
	}
	return n
}

// ParseScript reads the text form. Blank lines and #-comments are
// ignored; anything else must parse, so a typo fails the run instead of
// silently skipping a fault.
func ParseScript(r io.Reader) (Script, error) {
	var sc Script
	scan := bufio.NewScanner(r)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		step, err := parseStep(line)
		if err != nil {
			return Script{}, fmt.Errorf("chaos: line %d: %w", lineNo, err)
		}
		sc.Steps = append(sc.Steps, step)
	}
	if err := scan.Err(); err != nil {
		return Script{}, err
	}
	sort.SliceStable(sc.Steps, func(i, j int) bool { return sc.Steps[i].At < sc.Steps[j].At })
	return sc, nil
}

func parseStep(line string) (Step, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "@") {
		return Step{}, fmt.Errorf("want \"@<index> <op> [args]\", got %q", line)
	}
	at, err := strconv.Atoi(fields[0][1:])
	if err != nil || at < 0 {
		return Step{}, fmt.Errorf("bad arrival index %q", fields[0])
	}
	st := Step{At: at, Op: Op(fields[1])}
	args := fields[2:]
	switch st.Op {
	case OpFailTile, OpFailLink, OpRestoreTile, OpRestoreLink:
		if len(args) != 1 {
			return Step{}, fmt.Errorf("%s wants one resource ordinal", st.Op)
		}
		if st.N, err = strconv.Atoi(args[0]); err != nil || st.N < 0 {
			return Step{}, fmt.Errorf("bad resource ordinal %q", args[0])
		}
	case OpSpike:
		if len(args) != 2 {
			return Step{}, fmt.Errorf("spike wants <duration> <count>")
		}
		if st.Dur, err = time.ParseDuration(args[0]); err != nil || st.Dur <= 0 {
			return Step{}, fmt.Errorf("bad spike duration %q", args[0])
		}
		if st.N, err = strconv.Atoi(args[1]); err != nil || st.N <= 0 {
			return Step{}, fmt.Errorf("bad spike count %q", args[1])
		}
	case OpDrain, OpCrash:
		if len(args) != 0 {
			return Step{}, fmt.Errorf("%s takes no arguments", st.Op)
		}
	default:
		return Step{}, fmt.Errorf("unknown op %q", fields[1])
	}
	return st, nil
}
