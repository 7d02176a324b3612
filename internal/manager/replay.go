package manager

import (
	"fmt"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
)

// ReplayEvents rebuilds a crashed manager from its journal's verified
// event stream: the caller verifies (journal.Verify, Recover or
// RecoverFiles check the frames, the hash chain, Merkle roots and
// sequence order and discard the torn tail — events appended after the
// last seal) and the sealed events are applied in order to the given
// fresh platform.
// plat must be pristine and topologically identical to the crashed
// manager's (same mesh, same partition); the journal carries reservation
// deltas, not topology.
//
// The reconstruction is bit-for-bit: every journaled event carries the
// exact aggregated per-tile float delta its live commit applied (raw
// Float64bits on disk), events were appended inside the same
// platform-locked sections that applied them (journal order = commit
// order), and replay hands each event's deltas straight to
// core.ApplyDeltas, which gives every tile the same single addition the
// live Commit or Release did — so the replayed ledger, including the
// order-sensitive ReservedUtil float sums, equals the live one exactly.
// Nothing is built per event: only the residents still running when the
// stream ends get an Admission, an Application, a plan (from the event
// that last placed them) and their integer load charge.
//
// Rebuilt residents carry no Result or library (those did not survive
// the crash): they can be stopped, inspected and displaced by faults,
// but not relocated or preempted.
func ReplayEvents(plat *arch.Platform, cfg core.Config, events []journal.Event) (*Manager, error) {
	m := New(plat, cfg)
	// running holds the residents; released holds them between a
	// preemption or fault release and the matching relocate (back to
	// running) or evict (gone).
	running := make(map[string]replayed)
	released := make(map[string]replayed)
	for i := range events {
		e := &events[i]
		switch e.Type {
		case journal.EvAdmit:
			core.ApplyDeltas(plat, e.Tiles, e.Links, +1)
			m.seq++
			running[e.App] = replayed{e, m.seq, model.Priority(e.Priority).Clamp()}
		case journal.EvDepart:
			core.ApplyDeltas(plat, e.Tiles, e.Links, -1)
			delete(running, e.App)
		case journal.EvPreemptRelease, journal.EvFaultRelease:
			core.ApplyDeltas(plat, e.Tiles, e.Links, -1)
			if r, ok := running[e.App]; ok {
				delete(running, e.App)
				released[e.App] = r
			}
		case journal.EvRelocate:
			core.ApplyDeltas(plat, e.Tiles, e.Links, +1)
			r, ok := released[e.App]
			if !ok {
				// A relocation with no release on record would mean the
				// journal skipped a reservation change.
				return nil, fmt.Errorf("manager: replay: relocate of %q without a prior release (seq %d)", e.App, e.Seq)
			}
			delete(released, e.App)
			r.placed = e
			running[e.App] = r
		case journal.EvEvict:
			delete(released, e.App)
		case journal.EvFailTile:
			plat.FailTile(e.Tile)
		case journal.EvRestoreTile:
			plat.RestoreTile(e.Tile)
		case journal.EvFailLink:
			plat.FailLink(e.Link)
		case journal.EvRestoreLink:
			plat.RestoreLink(e.Link)
		default:
			return nil, fmt.Errorf("manager: replay: unknown event type %s (seq %d)", e.Type, e.Seq)
		}
	}
	// Victims mid-evacuation at the crash (still in released) hold no
	// reservations: the honest reconstruction is "gone", as the live
	// manager would have concluded had it crashed after the release.
	for name, r := range running {
		ad := &Admission{
			App:      model.NewApplication(name, model.QoS{Priority: r.prio}),
			Seq:      r.seq,
			Priority: r.prio,
			plan:     core.NewDeltaPlan(r.placed.Tiles, r.placed.Links),
		}
		m.running[name] = ad
	}
	return m, nil
}

// replayed is what replay keeps of an application until the stream ends:
// the event whose deltas it holds, its admission order and its admit-time
// priority.
type replayed struct {
	placed *journal.Event
	seq    int
	prio   model.Priority
}
