package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"rtsm/internal/arch"
)

// Trace records every decision of a mapping attempt. The experiment
// harness renders Trace.Step2 as the paper's Table 2.
type Trace struct {
	Step1 []Step1Record
	Step2 []Step2Record
	Step3 []Step3Record
	Notes []string
}

// Step1Record documents one implementation choice.
type Step1Record struct {
	Process string
	// Desirability is the cost gap between the cheapest and second
	// cheapest option at decision time; +Inf means the process had a
	// single remaining option (the paper's "chosen per default").
	Desirability float64
	Impl         string
	Tile         string
}

// String renders the record as one line of the step-1 trace table.
func (r Step1Record) String() string {
	d := "forced"
	if !math.IsInf(r.Desirability, 1) {
		d = fmt.Sprintf("%.1f", r.Desirability)
	}
	return fmt.Sprintf("%-12s desirability=%-7s → %s on %s", r.Process, d, r.Impl, r.Tile)
}

// MoveKind distinguishes step-2 neighbourhood moves.
type MoveKind int

const (
	// Initial is the pseudo-record holding step 1's greedy assignment.
	Initial MoveKind = iota
	// Move relocates a process to a free tile of the same type.
	Move
	// Swap exchanges the tiles of two processes of the same tile type.
	Swap
)

// String names the move kind as it appears in the step-2 trace.
func (k MoveKind) String() string {
	switch k {
	case Initial:
		return "initial"
	case Move:
		return "move"
	case Swap:
		return "swap"
	}
	return "?"
}

// Step2Record documents one step-2 iteration: a candidate reassignment,
// the resulting cost, and the verdict, mirroring a row of the paper's
// Table 2.
type Step2Record struct {
	Iteration int
	Kind      MoveKind
	// ProcA moves (to TileB) or swaps with ProcB.
	ProcA, ProcB string
	TileA, TileB string
	// Procs and Tiles hold step 1's assignment on the Initial record only:
	// the mappable processes in declaration order and the tile of each.
	// RenderStep2Table replays later rows from them.
	Procs, Tiles []string
	Cost         float64
	Accepted     bool
	Remark       string
}

// String renders the record as one line of the step-2 (Table 2) trace.
func (r Step2Record) String() string {
	return fmt.Sprintf("iter %d: %-7s %-24s cost=%-6.1f %s",
		r.Iteration, r.Kind, r.describeMove(), r.Cost, r.Remark)
}

func (r Step2Record) describeMove() string {
	switch r.Kind {
	case Initial:
		return "(greedy assignment)"
	case Move:
		return fmt.Sprintf("%s: %s→%s", r.ProcA, r.TileA, r.TileB)
	case Swap:
		return fmt.Sprintf("%s↔%s", r.ProcA, r.ProcB)
	}
	return ""
}

// Step3Record documents one routed channel.
type Step3Record struct {
	Channel string
	Bps     int64
	Hops    int
	Routers []arch.RouterID
}

// String renders the record as one line of the step-3 routing trace.
func (r Step3Record) String() string {
	return fmt.Sprintf("%-24s %8d B/s  %d hops via %v", r.Channel, r.Bps, r.Hops, r.Routers)
}

// RenderStep2Table renders the step-2 trace in the layout of the paper's
// Table 2: one column per tile, one row per iteration, with cost and
// remark. Tile columns appear in the given order. A row shows its move or
// swap applied to the assignment as of the last accepted row.
func (t *Trace) RenderStep2Table(tileOrder []string) string {
	var b strings.Builder
	b.WriteString("Iter")
	for _, tile := range tileOrder {
		fmt.Fprintf(&b, "\t%s", tile)
	}
	b.WriteString("\tCost\tRemark\n")
	var procs, cur []string // the replayed assignment: procs[i] is on cur[i]
	for _, r := range t.Step2 {
		iter, row := fmt.Sprintf("%d", r.Iteration), slices.Clone(cur)
		switch r.Kind {
		case Initial:
			iter, procs, row = "-", r.Procs, r.Tiles
		case Swap:
			row[slices.Index(procs, r.ProcB)] = r.TileA
			fallthrough
		case Move:
			row[slices.Index(procs, r.ProcA)] = r.TileB
		}
		if r.Kind == Initial || r.Accepted {
			cur = row
		}
		b.WriteString(iter)
		for _, tile := range tileOrder {
			var on []string
			for i, host := range row {
				if host == tile {
					on = append(on, procs[i])
				}
			}
			proc := strings.Join(on, "+")
			if proc == "" {
				proc = "·"
			}
			fmt.Fprintf(&b, "\t%s", proc)
		}
		fmt.Fprintf(&b, "\t%.0f\t%s\n", r.Cost, r.Remark)
	}
	return b.String()
}
