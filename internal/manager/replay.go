package manager

import (
	"fmt"
	"io"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
)

// Replay rebuilds a crashed manager from its journal: the stream is
// verified (hash chain, Merkle roots, sequence order), the torn tail —
// events appended after the last seal — is discarded, and the sealed
// events are applied in order to the given fresh platform. plat must be
// pristine and topologically identical to the crashed manager's (same
// mesh, same partition); the journal carries reservation deltas, not
// topology.
//
// The reconstruction is bit-for-bit: every journaled event carries the
// exact aggregated per-tile float delta its live commit applied
// (math.Float64bits round-trip), events were appended inside the same
// region-locked sections that applied them (per-region journal order =
// commit order), and replay applies each event as the same single
// commit or release call — so the replayed ledger, including the
// order-sensitive ReservedUtil float sums, equals the live one exactly.
//
// Rebuilt residents carry no Result or library (those did not survive
// the crash): they can be stopped, inspected and displaced by faults,
// but not relocated or preempted. The returned tail count is how many
// unsealed trailing events were discarded.
func Replay(plat *arch.Platform, cfg core.Config, r io.Reader) (*Manager, int, error) {
	events, tail, err := journal.Verify(r)
	if err != nil {
		return nil, tail, err
	}
	m, err := replayEvents(plat, cfg, events)
	return m, tail, err
}

// ReplaySegments is Replay over a rotated journal: the segments are the
// files a sequence of Writer.Rotate calls produced, oldest first. The
// chain is verified end to end (each later segment's snapshot head must
// carry the previous segment's final seal as its seed) and the combined
// event stream is applied exactly as Replay would apply a single
// segment, so a rotated journal rebuilds the same bit-for-bit platform.
func ReplaySegments(plat *arch.Platform, cfg core.Config, segments ...io.Reader) (*Manager, int, error) {
	events, tail, err := journal.VerifyChain(segments...)
	if err != nil {
		return nil, tail, err
	}
	m, err := replayEvents(plat, cfg, events)
	return m, tail, err
}

// ReplayEvents applies an already-verified event stream to a fresh
// manager over plat. It is the replay half of crash recovery when the
// caller did its own verification — journal.Recover / RecoverFiles
// return the sealed events plus the chain position for a resumed
// writer; this turns those events into the live manager. The same
// pristine-platform and bit-for-bit guarantees as Replay apply.
func ReplayEvents(plat *arch.Platform, cfg core.Config, events []journal.Event) (*Manager, error) {
	return replayEvents(plat, cfg, events)
}

// replayEvents applies a verified event stream to a fresh manager.
func replayEvents(plat *arch.Platform, cfg core.Config, events []journal.Event) (*Manager, error) {
	m := New(plat, cfg)
	// released holds residents between a preemption or fault release and
	// the matching relocate (back to running) or evict (gone). Live
	// bookkeeping keeps a victim's load charged until its outcome;
	// replay mirrors that.
	released := make(map[string]*Admission)
	for i := range events {
		e := &events[i]
		switch e.Type {
		case journal.EvAdmit:
			plan := replayPlan(m, e)
			plan.Commit(plat)
			m.seq++
			prio := clampPriority(model.Priority(e.Priority))
			ad := &Admission{
				App:           model.NewApplication(e.App, model.QoS{Priority: prio}),
				Seq:           m.seq,
				Priority:      prio,
				plan:          plan,
				loadUtilMilli: planUtilMilli(plan),
			}
			m.running[e.App] = ad
			m.loadCharge(ad)
		case journal.EvDepart:
			replayPlan(m, e).Release(plat)
			if ad := m.running[e.App]; ad != nil {
				delete(m.running, e.App)
				m.loadRelease(ad)
			}
		case journal.EvPreemptRelease, journal.EvFaultRelease:
			replayPlan(m, e).Release(plat)
			if ad := m.running[e.App]; ad != nil {
				delete(m.running, e.App)
				released[e.App] = ad
			}
		case journal.EvRelocate:
			plan := replayPlan(m, e)
			plan.Commit(plat)
			ad := released[e.App]
			if ad == nil {
				// A relocation with no release on record would mean the
				// journal skipped a reservation change.
				return nil, fmt.Errorf("manager: replay: relocate of %q without a prior release (seq %d)", e.App, e.Seq)
			}
			delete(released, e.App)
			m.loadRelease(ad)
			ad.plan = plan
			ad.loadUtilMilli = planUtilMilli(plan)
			m.loadCharge(ad)
			m.running[e.App] = ad
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
			return nil, fmt.Errorf("manager: replay: unknown event type %q (seq %d)", e.Type, e.Seq)
		}
	}
	if len(released) > 0 {
		// Victims mid-evacuation at the crash: their release is sealed
		// but their outcome is not. They hold no reservations, so the
		// honest reconstruction is "gone" — exactly what the live manager
		// would have concluded had it crashed after the release.
		for name, ad := range released {
			m.loadRelease(ad)
			delete(released, name)
		}
	}
	return m, nil
}

// replayPlan rebuilds one event's reservation plan from its deltas.
func replayPlan(m *Manager, e *journal.Event) *core.Plan {
	ts, ls := e.Reservations()
	return core.NewDeltaPlan(m.plat, e.App, ts, ls)
}

// planUtilMilli estimates a replayed resident's load contribution from
// its journaled per-tile utilisation deltas. It approximates the live
// loadCharge (which truncates per process, not per tile); the load
// estimate is advisory, unlike the ledger it never needs to be exact.
func planUtilMilli(p *core.Plan) int64 {
	tiles, _ := p.Deltas()
	var milli int64
	for _, t := range tiles {
		milli += int64(t.Util * 1000)
	}
	return milli
}
