package core

import (
	"cmp"
	"fmt"
	"slices"

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
	// App names the arrival whose commit was refused. A plan names no
	// application, so Plan.Validate leaves it empty for its caller to fill.
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

// planReservations computes the reservation plan of a mapping result. In
// strict mode an incomplete mapping (a mappable process without
// implementation or tile) is an error; lenient mode skips such processes,
// matching Remove's tolerance for partially built mappings.
//
// It aggregates into stack buffers and keeps exactly sized copies: a tile's
// entry is found by linear scan (a mapping touches a handful of tiles) and
// its Util summed in MappableProcesses order, the order the journal's
// bit-for-bit replay was recorded in; link hops are appended, then sorted
// and folded.
func planReservations(plat *arch.Platform, res *Result, strict bool) (*Plan, error) {
	mp := res.Mapping
	app := mp.App
	var tileBuf [32]TileReservation
	var linkBuf [64]LinkReservation
	tiles, links := tileBuf[:0], linkBuf[:0]
	var d *TileReservation
	// The two loops filter in place what MappableProcesses and
	// StreamChannels would allocate.
	for _, p := range app.Processes {
		if !p.Mappable() {
			continue
		}
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
		tiles, d = tileEntry(tiles, tid)
		d.MemBytes += im.MemBytes
		// CycleBudget reads only the tile's immutable description:
		// planning runs without the platform's lock.
		d.Util += utilisationOf(plat.Tile(tid).CycleBudget(app.QoS.PeriodNs), cyc)
		d.Occupants++
	}
	for _, c := range app.Channels {
		path, ok := mp.Route[c.ID]
		if !ok || !app.InStream(c) {
			continue
		}
		bps := channelBps(c, app.QoS.PeriodNs)
		for _, lid := range path.Links {
			links = append(links, LinkReservation{Link: lid, Bps: bps})
		}
		if path.Hops() > 0 {
			tiles, d = tileEntry(tiles, mp.Tile[c.Src])
			d.OutBps += bps
			tiles, d = tileEntry(tiles, mp.Tile[c.Dst])
			d.InBps += bps
		}
		if buf := mp.Buffers[c.ID]; buf > 0 {
			tiles, d = tileEntry(tiles, mp.Tile[c.Dst])
			d.MemBytes += buf * c.TokenBytes
		}
	}
	slices.SortFunc(tiles, byTile)
	slices.SortFunc(links, byLink)
	links = foldLinks(links)
	pl := &Plan{
		tiles: make([]TileReservation, len(tiles)),
		links: make([]LinkReservation, len(links)),
	}
	copy(pl.tiles, tiles)
	copy(pl.links, links)
	return pl, nil
}

// tileEntry returns the tile's entry in tiles, appending a zero one when
// the tile has none yet.
func tileEntry(tiles []TileReservation, id arch.TileID) ([]TileReservation, *TileReservation) {
	for i := range tiles {
		if tiles[i].Tile == id {
			return tiles, &tiles[i]
		}
	}
	tiles = append(tiles, TileReservation{Tile: id})
	return tiles, &tiles[len(tiles)-1]
}

// foldLinks sums the entries of each link in sorted deltas in place.
func foldLinks(links []LinkReservation) []LinkReservation {
	out := links[:0]
	for _, l := range links {
		if n := len(out); n > 0 && out[n-1].Link == l.Link {
			out[n-1].Bps += l.Bps
		} else {
			out = append(out, l)
		}
	}
	return out
}

// checked plans res and validates the plan against plat, naming res's
// application in a conflict.
func checked(plat *arch.Platform, res *Result) (*Plan, error) {
	pl, err := NewPlan(plat, res)
	if err != nil {
		return nil, err
	}
	if vs := pl.Violations(plat); len(vs) > 0 {
		return nil, &ConflictError{App: res.Mapping.App.Name, Violations: vs}
	}
	return pl, nil
}

// Validate checks whether a mapping computed against a (possibly stale)
// snapshot can still be committed to the platform, without mutating
// anything. A nil error means Apply would succeed on the platform as it
// is now.
func Validate(plat *arch.Platform, res *Result) error {
	_, err := checked(plat, res)
	return err
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
	pl, err := checked(plat, res)
	if err != nil {
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

// Plan is the aggregated reservation set of one mapping: its per-tile and
// per-link deltas, sorted by resource ID with each resource once — what
// Deltas hands out and the journal records. It is the unit of the
// manager's transaction: NewPlan aggregates without any lock (it reads
// only the mapping and the tiles' immutable description), the caller then
// takes the platform's lock and runs Validate/Commit, which touch
// reservation state only on the tiles and links the plan names.
//
// A plan is never mutated after it is built, so one plan may be shared:
// a mapping template carries its plan, and every resident committed from
// the template commits and releases that same value.
type Plan struct {
	tiles []TileReservation
	links []LinkReservation
}

// NewPlan aggregates the reservations res makes into a Plan, strictly: an
// incomplete mapping is an error. No reservation state is read, so no
// lock is needed.
func NewPlan(plat *arch.Platform, res *Result) (*Plan, error) {
	return planReservations(plat, res, true)
}

// NewRemovalPlan aggregates the reservations res holds for release,
// leniently: processes a partially built mapping never placed are
// skipped, matching Remove's tolerance.
func NewRemovalPlan(plat *arch.Platform, res *Result) (*Plan, error) {
	return planReservations(plat, res, false)
}

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
	_, ok := slices.BinarySearchFunc(p.tiles, id, func(d TileReservation, id arch.TileID) int { return cmp.Compare(d.Tile, id) })
	return ok
}

// UsesLink reports whether the plan holds reservations on the link.
func (p *Plan) UsesLink(id arch.LinkID) bool {
	_, ok := slices.BinarySearchFunc(p.links, id, func(d LinkReservation, id arch.LinkID) int { return cmp.Compare(d.Link, id) })
	return ok
}

// Violations checks the plan against the platform's live residual
// capacity and attributes every conflict to the resource it exhausts. The
// caller must hold the platform's lock when the platform is shared. Only
// the resources the plan touches are visited, so a plan that fits
// allocates nothing here. The report follows the plan's order: tiles by
// ID (each tile's dimensions in ResourceKind order), then links by ID.
func (p *Plan) Violations(plat *arch.Platform) []ValidationError {
	var out []ValidationError
	for i := range p.tiles {
		d := &p.tiles[i]
		t := plat.Tile(d.Tile)
		if t.Failed {
			out = append(out, ValidationError{Kind: ResTileFailed, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.Occupants)})
			continue
		}
		if t.ReservedMem+d.MemBytes > t.MemBytes {
			out = append(out, ValidationError{Kind: ResTileMem, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.MemBytes), Avail: float64(t.FreeMem())})
		}
		if t.ReservedUtil+d.Util > 1.0+utilEps {
			out = append(out, ValidationError{Kind: ResTileUtil, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: d.Util, Avail: 1.0 - t.ReservedUtil})
		}
		if t.MaxOccupants > 0 && int(t.Occupants)+d.Occupants > t.MaxOccupants {
			out = append(out, ValidationError{Kind: ResTileOccupancy, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.Occupants), Avail: float64(t.MaxOccupants - int(t.Occupants))})
		}
		if t.NICapBps > 0 && (t.ReservedInBps+d.InBps > t.NICapBps || t.ReservedOutBps+d.OutBps > t.NICapBps) {
			need, avail := d.InBps, t.NICapBps-t.ReservedInBps
			if t.ReservedOutBps+d.OutBps > t.NICapBps {
				need, avail = d.OutBps, t.NICapBps-t.ReservedOutBps
			}
			out = append(out, ValidationError{Kind: ResTileNI, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(need), Avail: float64(avail)})
		}
	}
	for _, d := range p.links {
		l := plat.Link(d.Link)
		if l.Failed {
			out = append(out, ValidationError{Kind: ResLinkFailed, Tile: arch.NoTile, Link: d.Link,
				Need: float64(d.Bps)})
			continue
		}
		if l.ReservedBps+d.Bps > l.CapBps {
			out = append(out, ValidationError{Kind: ResLink, Tile: arch.NoTile, Link: d.Link,
				Need: float64(d.Bps), Avail: float64(l.FreeBps())})
		}
	}
	return out
}

// Validate is Violations wrapped into a *ConflictError naming the
// exhausted resources, or nil. The error names no application: the
// caller, which knows the arrival, fills in ConflictError.App.
func (p *Plan) Validate(plat *arch.Platform) error {
	if vs := p.Violations(plat); len(vs) > 0 {
		return &ConflictError{Violations: vs}
	}
	return nil
}

// Commit reserves the plan on the platform and bumps its version. The
// caller must hold the platform's lock when the platform is shared and
// have seen Validate succeed under it.
func (p *Plan) Commit(plat *arch.Platform) {
	ApplyDeltas(plat, p.tiles, p.links, +1)
}

// Release subtracts the plan's reservations, undoing Commit. The caller
// must hold the platform's lock when the platform is shared.
func (p *Plan) Release(plat *arch.Platform) {
	ApplyDeltas(plat, p.tiles, p.links, -1)
}
