// Command journal inspects the binary admission journal cmd/serve
// writes with -journal. Every mode verifies the segments it is
// given as one chain first — magic, frame headers, record hashes, Merkle
// seals, the hash chain and the rotation heads that link one segment to
// the next — and never writes to them. A final segment that ends inside
// its head frame is treated as absent, as recovery treats it; verify and
// stat name it on a line of their own.
//
//	go run ./cmd/journal verify run.journal run.journal.r1   # exit 1 naming the segment and offset of the first bad frame
//	go run ./cmd/journal stat run.journal                    # events / seals / bytes / B per event / torn bytes per segment
//	go run ./cmd/journal dump run.journal | jq .type         # one JSON object per sealed event
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"rtsm/internal/journal"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = "usage: journal verify|stat|dump <segment>..."

// run is main with its streams and exit code as values: 0 on success, 1
// when a segment cannot be read or the chain does not verify, 2 on usage.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	mode, paths := args[0], args[1:]
	if mode != "verify" && mode != "stat" && mode != "dump" {
		fmt.Fprintf(stderr, "journal: unknown mode %q\n%s\n", mode, usage)
		return 2
	}
	segments := make([]io.Reader, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(stderr, "journal: %v\n", err)
			return 1
		}
		defer f.Close()
		segments[i] = f
	}
	rec, err := journal.Recover(segments...)
	if err != nil {
		fmt.Fprintln(stderr, err) // names the segment by position and the frame by offset
		return 1
	}
	switch mode {
	case "verify":
		last := rec.Segments[len(rec.Segments)-1]
		fmt.Fprintf(stdout, "ok: %d sealed events in %d segments, chain %s seq %d; torn tail %d events, %d bytes\n",
			len(rec.Events), len(rec.Segments), rec.Chain, rec.Seq, rec.Tail, last.Bytes-last.Sealed)
	case "stat":
		fmt.Fprintf(stdout, "%-8s %-8s %-10s %-10s %-10s %s\n", "events", "seals", "bytes", "B/event", "torn", "segment")
		for i, seg := range rec.Segments {
			perEvent := 0.0
			if seg.Events > 0 {
				perEvent = float64(seg.Sealed) / float64(seg.Events)
			}
			fmt.Fprintf(stdout, "%-8d %-8d %-10d %-10.1f %-10d %s\n",
				seg.Events, seg.Seals, seg.Bytes, perEvent, seg.Bytes-seg.Sealed, paths[i])
		}
	case "dump":
		enc := json.NewEncoder(stdout)
		for i := range rec.Events {
			if err := enc.Encode(textEvent(&rec.Events[i])); err != nil {
				fmt.Fprintf(stderr, "journal: %v\n", err)
				return 1
			}
		}
	}
	if mode != "dump" && len(rec.Segments) < len(paths) {
		// Recover treats a final segment cut inside its head frame as absent.
		fmt.Fprintf(stdout, "skipped %s: no head frame, so nothing was journaled there\n", paths[len(paths)-1])
	}
	return 0
}

// The text form of an event, as the JSON-lines journal wrote it: Util
// stays the IEEE-754 bit pattern, which is what round-trips exactly.
type (
	eventJSON struct {
		Seq      uint64     `json:"seq"`
		Type     string     `json:"type"`
		App      string     `json:"app,omitempty"`
		Priority int        `json:"prio,omitempty"`
		Tile     int        `json:"ftile,omitempty"`
		Link     int        `json:"flink,omitempty"`
		Tiles    []tileJSON `json:"tiles,omitempty"`
		Links    []linkJSON `json:"links,omitempty"`
	}
	tileJSON struct {
		Tile      int    `json:"tile"`
		MemBytes  int64  `json:"mem,omitempty"`
		UtilBits  uint64 `json:"util,omitempty"`
		Occupants int    `json:"occ,omitempty"`
		InBps     int64  `json:"in,omitempty"`
		OutBps    int64  `json:"out,omitempty"`
	}
	linkJSON struct {
		Link int   `json:"link"`
		Bps  int64 `json:"bps"`
	}
)

func textEvent(e *journal.Event) eventJSON {
	out := eventJSON{Seq: e.Seq, Type: e.Type.String(), App: e.App, Priority: e.Priority,
		Tile: int(e.Tile), Link: int(e.Link)}
	for _, t := range e.Tiles {
		out.Tiles = append(out.Tiles, tileJSON{int(t.Tile), t.MemBytes, math.Float64bits(t.Util), t.Occupants, t.InBps, t.OutBps})
	}
	for _, l := range e.Links {
		out.Links = append(out.Links, linkJSON{int(l.Link), l.Bps})
	}
	return out
}
