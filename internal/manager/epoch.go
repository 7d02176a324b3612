package manager

import "rtsm/internal/arch"

// Epoch snapshots: the admission pipeline's snapshot acquisition. With
// copy-on-write snapshots (arch.Platform.SnapshotCoW) a capture is
// already O(regions) instead of O(mesh); epoch sharing removes even that
// from the common case. Concurrent admissions inside one pipeline
// "epoch" map against a single frozen base snapshot instead of each
// taking their own — safe because the snapshot is immutable (every
// mapper works on a copy-on-write child) and because commit-time
// validation against the per-region versions catches whatever staleness
// the sharing introduces, exactly as it catches races between fresh
// snapshots. The epoch rolls when the live platform has moved more than
// epochLag commits past the base; retries always capture fresh state
// (and publish it as the new epoch), since re-deciding against the very
// snapshot that just lost a race would be wasted work.

// countSnapshot records a base-snapshot capture (or an epoch share) in
// the statistics.
func (m *Manager) countSnapshot(shared bool) {
	m.mu.Lock()
	if shared {
		m.stats.SnapshotsShared++
	} else {
		m.stats.Snapshots++
	}
	m.mu.Unlock()
}

// baseSnapshot returns the snapshot a new admission starts mapping
// against: the current epoch's shared base when it is still within the
// staleness budget, a freshly captured one (which becomes the new epoch)
// otherwise.
func (m *Manager) baseSnapshot() *arch.Snapshot {
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	// The staleness guard compares unsigned versions: live must be at
	// least the snapshot's before subtracting, or a snapshot from ahead
	// of the live counter (conceivable after a future reset/rollback
	// path) would underflow to a huge distance. Today that underflow
	// happens to fail the ≤ lag test — the safe direction — but only by
	// accident; the explicit ordering check keeps it safe on purpose and
	// rolls the epoch whenever the version history is not comparable.
	live := m.plat.Version()
	if s := m.epochSnap; s != nil &&
		len(s.RegionVersions) == m.plat.RegionCount() &&
		live >= s.Version && live-s.Version <= m.epochLag {
		m.countSnapshot(true)
		return s
	}
	s := m.plat.SnapshotCoW(m.locks)
	m.epochSnap = s
	m.countSnapshot(false)
	return s
}

// freshSnapshot captures the platform's current state for a retry round
// — a commit conflict, a stale infeasible verdict or a stale template
// pool — and publishes it as the new epoch so admissions arriving next
// share the freshest view.
func (m *Manager) freshSnapshot() *arch.Snapshot {
	s := m.plat.SnapshotCoW(m.locks)
	m.countSnapshot(false)
	m.epochMu.Lock()
	if m.epochSnap == nil || m.epochSnap.Version < s.Version {
		m.epochSnap = s
	}
	m.epochMu.Unlock()
	return s
}
