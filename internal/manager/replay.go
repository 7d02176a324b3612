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
// No plan is built per event; only the residents still running when the
// stream ends get one, from the event that last placed them.
//
// Rebuilt residents carry no Result or library (those did not survive
// the crash): they can be stopped, inspected and displaced by faults,
// but not relocated or preempted.
func ReplayEvents(plat *arch.Platform, cfg core.Config, events []journal.Event) (*Manager, error) {
	m := New(plat, cfg)
	// placed is the event whose deltas each running resident holds.
	placed := make(map[string]*journal.Event)
	// released holds residents between a preemption or fault release and
	// the matching relocate (back to running) or evict (gone). Live
	// bookkeeping keeps a victim's load charged until its outcome;
	// replay mirrors that.
	released := make(map[string]*Admission)
	for i := range events {
		e := &events[i]
		switch e.Type {
		case journal.EvAdmit:
			core.ApplyDeltas(plat, e.Tiles, e.Links, +1)
			m.seq++
			prio := clampPriority(model.Priority(e.Priority))
			ad := &Admission{
				App:      model.NewApplication(e.App, model.QoS{Priority: prio}),
				Seq:      m.seq,
				Priority: prio,
			}
			m.running[e.App], placed[e.App] = ad, e
			m.loadChargeTiles(ad, e.Tiles)
		case journal.EvDepart:
			core.ApplyDeltas(plat, e.Tiles, e.Links, -1)
			if ad := m.running[e.App]; ad != nil {
				delete(m.running, e.App)
				m.loadRelease(ad)
			}
		case journal.EvPreemptRelease, journal.EvFaultRelease:
			core.ApplyDeltas(plat, e.Tiles, e.Links, -1)
			if ad := m.running[e.App]; ad != nil {
				delete(m.running, e.App)
				released[e.App] = ad
			}
		case journal.EvRelocate:
			core.ApplyDeltas(plat, e.Tiles, e.Links, +1)
			ad := released[e.App]
			if ad == nil {
				// A relocation with no release on record would mean the
				// journal skipped a reservation change.
				return nil, fmt.Errorf("manager: replay: relocate of %q without a prior release (seq %d)", e.App, e.Seq)
			}
			delete(released, e.App)
			m.loadRelease(ad)
			m.loadChargeTiles(ad, e.Tiles)
			m.running[e.App], placed[e.App] = ad, e
		case journal.EvEvict:
			if ad := released[e.App]; ad != nil {
				delete(released, e.App)
				m.loadRelease(ad)
			}
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
	// Victims mid-evacuation at the crash: their release is sealed but
	// their outcome is not. They hold no reservations, so the honest
	// reconstruction is "gone" — exactly what the live manager would
	// have concluded had it crashed after the release.
	for _, ad := range released {
		m.loadRelease(ad)
	}
	for name, ad := range m.running {
		e := placed[name]
		ad.plan = core.NewDeltaPlan(name, e.Tiles, e.Links)
	}
	return m, nil
}
