package core

import (
	"fmt"
	"sort"

	"rtsm/internal/arch"
)

// This file is the commit phase of the admission pipeline: a mapping is
// computed against a snapshot of the platform (Mapper.Map never mutates
// its argument), and committing it to the live platform must re-validate
// adequacy and adherence because competing admissions may have landed
// since the snapshot was taken. Apply therefore works in two phases: it
// first aggregates every reservation the mapping needs into a plan, checks
// the whole plan against the live residual state, and only then mutates —
// so a conflicting admission yields an error and an untouched platform,
// never a partial or over-committed reservation.

// ResourceKind names the capacity dimension a validation failure exhausted.
type ResourceKind int

const (
	// ResTileMem: tile-local memory (implementation images plus stream
	// buffers charged to the consumer's tile).
	ResTileMem ResourceKind = iota
	// ResTileUtil: processing-element utilisation.
	ResTileUtil
	// ResTileOccupancy: the tile's occupant-slot limit.
	ResTileOccupancy
	// ResTileNI: the tile's network-interface bandwidth (in or out).
	ResTileNI
	// ResLink: guaranteed-throughput bandwidth of one NoC link.
	ResLink
	// ResTileFailed: the tile is marked failed at run time; no plan may
	// add reservations to it whatever its ledger says.
	ResTileFailed
	// ResLinkFailed: the link is marked failed at run time.
	ResLinkFailed
)

// String names the capacity dimension for human-readable reports.
func (k ResourceKind) String() string {
	switch k {
	case ResTileMem:
		return "tile-memory"
	case ResTileUtil:
		return "tile-utilisation"
	case ResTileOccupancy:
		return "tile-occupancy"
	case ResTileNI:
		return "tile-ni"
	case ResLink:
		return "link"
	case ResTileFailed:
		return "tile-failed"
	case ResLinkFailed:
		return "link-failed"
	}
	return "?"
}

// ValidationError is one resource conflict found while validating a
// mapping against a platform's residual capacity: which resource, on which
// tile or link, and how far short it falls. Need is what the mapping adds,
// Avail what the platform still has free — bytes for ResTileMem,
// a utilisation fraction for ResTileUtil, occupant slots for
// ResTileOccupancy, and bits per second for ResTileNI and ResLink.
type ValidationError struct {
	Kind ResourceKind
	// Tile is the conflicted tile for the tile kinds, arch.NoTile for
	// ResLink.
	Tile arch.TileID
	// TileName mirrors Tile for human-readable reports.
	TileName string
	// Link is the conflicted link for ResLink, -1 otherwise.
	Link  arch.LinkID
	Need  float64
	Avail float64
}

// Error renders the violation with its resource, shortfall and tile or
// link identity.
func (e ValidationError) Error() string {
	switch e.Kind {
	case ResLink:
		return fmt.Sprintf("link %d capacity exhausted (%.0f of needed %.0f bps free)", e.Link, e.Avail, e.Need)
	case ResTileFailed:
		return fmt.Sprintf("tile %q has failed", e.TileName)
	case ResLinkFailed:
		return fmt.Sprintf("link %d has failed", e.Link)
	case ResTileUtil:
		return fmt.Sprintf("tile %q over-committed (util need %.3f, free %.3f)", e.TileName, e.Need, e.Avail)
	case ResTileOccupancy:
		return fmt.Sprintf("tile %q occupied (need %.0f slots, %.0f free)", e.TileName, e.Need, e.Avail)
	case ResTileNI:
		return fmt.Sprintf("tile %q network interface saturated (need %.0f bps, %.0f free)", e.TileName, e.Need, e.Avail)
	default:
		return fmt.Sprintf("tile %q memory exhausted (need %.0f bytes, %.0f free)", e.TileName, e.Need, e.Avail)
	}
}

// ConflictError reports that a mapping could not be committed because the
// platform no longer has the resources the mapping relies on — i.e. a
// competing reservation landed between snapshot and commit. The admission
// pipeline retries on it with a fresh snapshot; the incremental repair
// engine reads Violations to keep everything that still fits.
type ConflictError struct {
	App string
	// Violations attributes the conflict per resource: every exhausted
	// tile dimension and link, not just the first one found.
	Violations []ValidationError
}

// Error summarises the first violation and how many more there are.
func (e *ConflictError) Error() string {
	detail := "no violations recorded"
	if len(e.Violations) > 0 {
		detail = e.Violations[0].Error()
		if n := len(e.Violations) - 1; n > 0 {
			detail = fmt.Sprintf("%s (and %d more)", detail, n)
		}
	}
	return fmt.Sprintf("core: cannot commit %q: %s", e.App, detail)
}

// tileDelta aggregates what a mapping adds to one tile.
type tileDelta struct {
	mem       int64
	util      float64
	occupants int
	inBps     int64
	outBps    int64
}

// commitPlan is the full set of reservations one mapping makes, aggregated
// per tile and per link so it can be validated against residual capacity
// in one pass and applied atomically.
type commitPlan struct {
	// appName identifies the application the plan reserves for. Only the
	// name is kept (not the model.Application) so replay can rebuild
	// plans from journaled deltas without the original workload objects.
	appName string
	tiles   map[arch.TileID]*tileDelta
	links   map[arch.LinkID]int64
	// arena backs the tileDelta values in one allocation; tile() hands
	// out pointers into it while capacity lasts. Entries are never
	// re-derived from the slice, so a fallback heap allocation past the
	// pre-sized capacity is harmless.
	arena []tileDelta
}

func (pl *commitPlan) tile(id arch.TileID) *tileDelta {
	d := pl.tiles[id]
	if d == nil {
		if len(pl.arena) < cap(pl.arena) {
			pl.arena = pl.arena[:len(pl.arena)+1]
			d = &pl.arena[len(pl.arena)-1]
		} else {
			d = &tileDelta{}
		}
		pl.tiles[id] = d
	}
	return d
}

// planReservations computes the commit plan of a mapping result. In strict
// mode an incomplete mapping (a mappable process without implementation or
// tile) is an error; lenient mode skips such processes, matching Remove's
// tolerance for partially built mappings.
func planReservations(plat *arch.Platform, res *Result, strict bool) (*commitPlan, error) {
	mp := res.Mapping
	app := mp.App
	// Size the aggregation maps from the mapping itself: one tile entry
	// per placed process at most, a handful of links per routed channel.
	// Pre-sizing keeps the per-admission allocation count flat — this
	// plan is rebuilt on every validate/commit round of the hot path.
	chans := app.StreamChannels()
	pl := &commitPlan{
		appName: app.Name,
		tiles:   make(map[arch.TileID]*tileDelta, len(mp.Tile)),
		links:   make(map[arch.LinkID]int64, 4*len(chans)),
		arena:   make([]tileDelta, 0, len(mp.Tile)),
	}
	for _, p := range app.MappableProcesses() {
		im := mp.Impl[p.ID]
		tid, ok := mp.Tile[p.ID]
		if im == nil || !ok {
			if strict {
				return nil, fmt.Errorf("core: mapping incomplete for process %q", p.Name)
			}
			continue
		}
		cyc, err := im.CyclesPerPeriod(app, p)
		if err != nil {
			if strict {
				return nil, err
			}
			continue
		}
		d := pl.tile(tid)
		d.mem += im.MemBytes
		// CycleBudget reads only the tile's immutable description:
		// planning runs without the platform's lock.
		d.util += utilisationOf(plat.Tile(tid).CycleBudget(app.QoS.PeriodNs), cyc)
		d.occupants++
	}
	for _, c := range chans {
		path, ok := mp.Route[c.ID]
		if !ok {
			continue
		}
		bps := channelBps(c, app.QoS.PeriodNs)
		for _, lid := range path.Links {
			pl.links[lid] += bps
		}
		if path.Hops() > 0 {
			pl.tile(mp.Tile[c.Src]).outBps += bps
			pl.tile(mp.Tile[c.Dst]).inBps += bps
		}
		if buf := mp.Buffers[c.ID]; buf > 0 {
			pl.tile(mp.Tile[c.Dst]).mem += buf * c.TokenBytes
		}
	}
	return pl, nil
}

// violations checks the whole plan against the platform's live residual
// capacity and attributes every conflict to the resource it exhausts. Only
// the resources the plan touches are visited — this runs inside the
// manager's serialized commit section, on every commit, so a plan that
// fits allocates nothing here. The report is deterministic: tiles by ID
// (each tile's dimensions in ResourceKind order), then links by ID.
func (pl *commitPlan) violations(plat *arch.Platform) []ValidationError {
	var out []ValidationError
	for tid, d := range pl.tiles {
		t := plat.Tile(tid)
		if t.Failed {
			out = append(out, ValidationError{Kind: ResTileFailed, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.occupants)})
			continue
		}
		if t.ReservedMem+d.mem > t.MemBytes {
			out = append(out, ValidationError{Kind: ResTileMem, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.mem), Avail: float64(t.FreeMem())})
		}
		if t.ReservedUtil+d.util > 1.0+utilEps {
			out = append(out, ValidationError{Kind: ResTileUtil, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: d.util, Avail: 1.0 - t.ReservedUtil})
		}
		if t.MaxOccupants > 0 && int(t.Occupants)+d.occupants > t.MaxOccupants {
			out = append(out, ValidationError{Kind: ResTileOccupancy, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.occupants), Avail: float64(t.MaxOccupants - int(t.Occupants))})
		}
		if t.NICapBps > 0 && (t.ReservedInBps+d.inBps > t.NICapBps || t.ReservedOutBps+d.outBps > t.NICapBps) {
			need, avail := d.inBps, t.NICapBps-t.ReservedInBps
			if t.ReservedOutBps+d.outBps > t.NICapBps {
				need, avail = d.outBps, t.NICapBps-t.ReservedOutBps
			}
			out = append(out, ValidationError{Kind: ResTileNI, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(need), Avail: float64(avail)})
		}
	}
	for lid, bps := range pl.links {
		l := plat.Link(lid)
		if l.Failed {
			out = append(out, ValidationError{Kind: ResLinkFailed, Tile: arch.NoTile, Link: lid,
				Need: float64(bps)})
			continue
		}
		if l.ReservedBps+bps > l.CapBps {
			out = append(out, ValidationError{Kind: ResLink, Tile: arch.NoTile, Link: lid,
				Need: float64(bps), Avail: float64(l.FreeBps())})
		}
	}
	// The maps were walked in no particular order; a tile's dimensions were
	// appended in Kind order and a resource's (kind, id) pair is unique.
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if (a.Link >= 0) != (b.Link >= 0) {
				return b.Link >= 0
			}
			if a.Tile != b.Tile {
				return a.Tile < b.Tile
			}
			if a.Link != b.Link {
				return a.Link < b.Link
			}
			return a.Kind < b.Kind
		})
	}
	return out
}

// validate checks the whole plan against the platform's live residual
// capacity, returning a ConflictError attributing every exhausted resource.
func (pl *commitPlan) validate(plat *arch.Platform) error {
	if vs := pl.violations(plat); len(vs) > 0 {
		return &ConflictError{App: pl.appName, Violations: vs}
	}
	return nil
}

// commit applies the plan and bumps the platform's version. sign is +1 to
// reserve, -1 to release. The caller is the platform's one writer (it
// holds the owner's lock when the platform is shared).
func (pl *commitPlan) commit(plat *arch.Platform, sign int64) {
	for tid, d := range pl.tiles {
		t := plat.Tile(tid)
		t.ReservedMem += sign * d.mem
		t.ReservedUtil += float64(sign) * d.util
		t.Occupants += int32(sign) * int32(d.occupants)
		t.ReservedInBps += sign * d.inBps
		t.ReservedOutBps += sign * d.outBps
	}
	for lid, bps := range pl.links {
		plat.Link(lid).ReservedBps += sign * bps
	}
	plat.BumpVersion()
}

// Validate checks whether a mapping computed against a (possibly stale)
// snapshot can still be committed to the platform, without mutating
// anything. A nil error means Apply would succeed on the platform as it
// is now.
func Validate(plat *arch.Platform, res *Result) error {
	pl, err := planReservations(plat, res, true)
	if err != nil {
		return err
	}
	return pl.validate(plat)
}

// Apply commits a mapping's resource reservations to a platform: tile
// memory (implementation plus stream buffers), processing utilisation,
// network-interface bandwidth and link lanes. Use it to admit an
// application in multi-application scenarios; Remove undoes it.
//
// Apply is transactional: the whole mapping is validated against the
// platform's residual capacity first, and on any failure — including a
// *ConflictError when a competing admission claimed the resources since
// the mapping's snapshot was taken — the platform is left untouched.
//
// Apply assumes the caller serializes all access to plat. Callers that
// share plat between goroutines use NewPlan instead, which separates the
// lock-free planning from the locked validate-and-commit.
func Apply(plat *arch.Platform, res *Result) error {
	pl, err := NewPlan(plat, res)
	if err != nil {
		return err
	}
	if err := pl.Validate(plat); err != nil {
		return err
	}
	pl.Commit(plat)
	return nil
}

// Remove releases a previously applied mapping's reservations. Like
// Apply it assumes the caller serializes all access to plat.
func Remove(plat *arch.Platform, res *Result) {
	pl, err := NewRemovalPlan(plat, res)
	if err != nil {
		return // lenient planning never errors; keep the compiler honest
	}
	pl.Release(plat)
}

// Plan is the aggregated reservation set of one mapping, ready to be
// validated and committed. It is the unit of the manager's transaction:
// NewPlan aggregates without any lock (it reads only the mapping and the
// tiles' immutable description), the caller then takes the platform's
// lock and runs Validate/Commit, which touch reservation state only on
// the tiles and links the plan names.
type Plan struct {
	pl *commitPlan
	// What Deltas hands out, exported once by newPlan.
	tiles []TileReservation
	links []LinkReservation
}

// NewPlan aggregates the reservations res makes into a Plan, strictly: an
// incomplete mapping is an error. No reservation state is read, so no
// lock is needed.
func NewPlan(plat *arch.Platform, res *Result) (*Plan, error) {
	pl, err := planReservations(plat, res, true)
	if err != nil {
		return nil, err
	}
	return newPlan(pl), nil
}

// NewRemovalPlan aggregates the reservations res holds for release,
// leniently: processes a partially built mapping never placed are
// skipped, matching Remove's tolerance.
func NewRemovalPlan(plat *arch.Platform, res *Result) (*Plan, error) {
	pl, err := planReservations(plat, res, false)
	if err != nil {
		return nil, err
	}
	return newPlan(pl), nil
}

// App returns the name of the application the plan reserves for.
func (p *Plan) App() string { return p.pl.appName }

// Overlaps reports whether the plan holds reservations on at least one
// of the conflicted tiles or links. The preemption planner uses it to
// select victims whose reservations sit exactly where a failing
// admission ran out of resources (ConflictError.Violations). An empty
// argument overlaps nothing.
func (p *Plan) Overlaps(violations []ValidationError) bool {
	for _, v := range violations {
		if v.Link >= 0 {
			if p.UsesLink(v.Link) {
				return true
			}
		} else if p.UsesTile(v.Tile) {
			return true
		}
	}
	return false
}

// UsesTile reports whether the plan holds reservations on the tile. The
// fault evacuation uses it to find the residents a failed tile carried.
func (p *Plan) UsesTile(id arch.TileID) bool {
	_, ok := p.pl.tiles[id]
	return ok
}

// UsesLink reports whether the plan holds reservations on the link.
func (p *Plan) UsesLink(id arch.LinkID) bool {
	_, ok := p.pl.links[id]
	return ok
}

// Violations checks the plan against the platform's live residual
// capacity and attributes every conflict. The caller must hold the
// platform's lock when the platform is shared.
func (p *Plan) Violations(plat *arch.Platform) []ValidationError {
	return p.pl.violations(plat)
}

// Validate is Violations wrapped into the error Apply would return: nil,
// or a *ConflictError naming the exhausted resources.
func (p *Plan) Validate(plat *arch.Platform) error {
	return p.pl.validate(plat)
}

// Commit reserves the plan on the platform and bumps its version. The
// caller must hold the platform's lock when the platform is shared and
// have seen Validate succeed under it.
func (p *Plan) Commit(plat *arch.Platform) {
	p.pl.commit(plat, +1)
}

// Release subtracts the plan's reservations, undoing Commit. The caller
// must hold the platform's lock when the platform is shared.
func (p *Plan) Release(plat *arch.Platform) {
	p.pl.commit(plat, -1)
}
