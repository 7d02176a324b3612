package arch

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Platform is a complete MPSoC description: tiles, routers and links. The
// zero value is unusable; construct platforms with NewMesh and AttachTile,
// or with a workload generator.
type Platform struct {
	Name   string
	Width  int
	Height int
	// NoCClockHz is the clock of the routers; together with the 4-cycle
	// router latency it sets per-hop forwarding delay.
	NoCClockHz int64
	Tiles      []*Tile
	Routers    []*Router
	Links      []*Link

	out    [][]LinkID            // router -> outgoing link IDs
	byName map[string]TileID     // tile name -> id
	atRtr  [][]TileID            // router -> attached tile IDs
	ofType map[TileType][]TileID // tile type -> ids in declaration order

	// version counts committed reservation changes across the whole
	// platform; see Snapshot. It is atomic so the manager's staleness
	// probe (Version) can read it without taking the platform lock.
	version atomic.Uint64

	// tileSlab and linkSlab back Tiles and Links on a copy (CopyInto), so
	// a later CopyInto can reuse them; nil on a constructed platform.
	tileSlab []Tile
	linkSlab []Link
	// cells is the chunk AttachTile carves new tiles from; a full chunk
	// is replaced, never grown, so every *Tile handed out stays valid.
	cells []tileCell
}

// tileCell holds a description and its construction-time state in one
// slab element, as NewMesh's link slab does; copies take only the state.
type tileCell struct {
	Tile
	info TileInfo
}

// NewMesh creates a w×h mesh of routers with bidirectional links of the
// given capacity between horizontal and vertical neighbours. Routers get
// the paper's 4-cycle worst-case latency. No tiles are attached yet.
// Routers, links and the adjacency lists live in slabs sized from w×h: a
// mesh router has at most four neighbours, so each router's outgoing
// link list is carved with capacity 4 and never leaves its slab.
func NewMesh(name string, w, h int, linkCapBps int64) *Platform {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("arch: invalid mesh dimensions %d×%d", w, h))
	}
	n, nLinks := w*h, 2*((w-1)*h+w*(h-1))
	p := &Platform{
		Name:       name,
		Width:      w,
		Height:     h,
		NoCClockHz: 200_000_000,
		Routers:    make([]*Router, n),
		Links:      make([]*Link, nLinks),
		Tiles:      make([]*Tile, 0, n),
		out:        make([][]LinkID, n),
		atRtr:      make([][]TileID, n),
		ofType:     make(map[TileType][]TileID),
	}
	routers, adj, at := make([]Router, n), make([]LinkID, 4*n), make([]TileID, n)
	for i := range routers {
		routers[i] = Router{ID: RouterID(i), Pos: Point{i % w, i / w}, LatencyCycles: 4}
		p.Routers[i] = &routers[i]
		p.out[i] = adj[4*i : 4*i : 4*i+4]
		p.atRtr[i] = at[i : i : i+1] // the first tile at a router stays in the slab
	}
	links := make([]struct {
		Link
		info LinkInfo
	}, nLinks)
	k := 0
	link := func(a, b RouterID) {
		l := &links[k]
		l.info = LinkInfo{ID: LinkID(k), From: a, To: b, CapBps: linkCapBps}
		l.LinkInfo = &l.info
		p.Links[k] = &l.Link
		p.out[a] = append(p.out[a], LinkID(k))
		k++
	}
	for r := range routers {
		a := RouterID(r)
		if r%w+1 < w {
			link(a, a+1)
			link(a+1, a)
		}
		if r+w < n {
			link(a, a+RouterID(w))
			link(a+RouterID(w), a)
		}
	}
	return p
}

// RouterAt returns the router at the given mesh coordinate.
func (p *Platform) RouterAt(pt Point) *Router {
	if pt.X < 0 || pt.X >= p.Width || pt.Y < 0 || pt.Y >= p.Height {
		panic(fmt.Sprintf("arch: router coordinate %v outside %d×%d mesh", pt, p.Width, p.Height))
	}
	return p.Routers[pt.Y*p.Width+pt.X]
}

// TileSpec carries the static parameters of a tile to attach.
type TileSpec struct {
	Name         string
	Type         TileType
	At           Point // router coordinate the tile attaches to
	ClockHz      int64
	MemBytes     int64
	NICapBps     int64
	MaxOccupants int // 0 = unlimited
}

// AttachTile adds a tile to the platform. Tile IDs are assigned in call
// order; the spatial mapper's first-fit packing visits tiles in this order,
// so declaration order encodes the paper's "first tile we come across".
func (p *Platform) AttachTile(s TileSpec) *Tile {
	if s.Name == "" {
		panic("arch: tile must have a name")
	}
	if _, dup := p.byName[s.Name]; dup {
		panic(fmt.Sprintf("arch: duplicate tile name %q", s.Name))
	}
	if p.byName == nil {
		p.byName = make(map[string]TileID, len(p.Routers))
	}
	r := p.RouterAt(s.At)
	if len(p.cells) == cap(p.cells) {
		p.cells = make([]tileCell, 0, max(len(p.Routers), 16))
	}
	p.cells = append(p.cells, tileCell{info: TileInfo{
		ID:           TileID(len(p.Tiles)),
		Name:         s.Name,
		Type:         s.Type,
		Router:       r.ID,
		ClockHz:      s.ClockHz,
		MemBytes:     s.MemBytes,
		NICapBps:     s.NICapBps,
		MaxOccupants: s.MaxOccupants,
	}})
	c := &p.cells[len(p.cells)-1]
	c.TileInfo = &c.info
	t := &c.Tile
	p.Tiles = append(p.Tiles, t)
	p.byName[s.Name] = t.ID
	p.atRtr[r.ID] = append(p.atRtr[r.ID], t.ID)
	p.ofType[s.Type] = append(p.ofType[s.Type], t.ID)
	return t
}

// AttachTiles attaches the tiles in order, as AttachTile one at a time
// would, after sizing the platform for all of them: the tile list, the
// name index, one cell chunk, and the ID list of every type and of every
// router that gains more tiles than its slot holds grow once, not per
// tile. The lists that grow move to one slab.
func (p *Platform) AttachTiles(specs []TileSpec) {
	p.Tiles = slices.Grow(p.Tiles, len(specs))
	if p.byName == nil {
		p.byName = make(map[string]TileID, len(specs))
	}
	if cap(p.cells)-len(p.cells) < len(specs) {
		p.cells = make([]tileCell, 0, len(specs))
	}
	perType, perRtr := make(map[TileType]int, 8), make([]int32, len(p.Routers))
	for _, s := range specs {
		perType[s.Type]++
		perRtr[p.RouterAt(s.At).ID]++
	}
	need := len(p.Tiles) + len(specs) // every type's list
	for r, n := range perRtr {
		if l := len(p.atRtr[r]) + int(n); l > cap(p.atRtr[r]) {
			need += l
		}
	}
	slab := make([]TileID, 0, need)
	carve := func(ids []TileID, n int) []TileID {
		end := len(slab) + len(ids) + n
		ids = append(slab[len(slab):len(slab):end], ids...)
		slab = slab[:end]
		return ids
	}
	for tt, n := range perType {
		p.ofType[tt] = carve(p.ofType[tt], n)
	}
	for r, n := range perRtr {
		if len(p.atRtr[r])+int(n) > cap(p.atRtr[r]) {
			p.atRtr[r] = carve(p.atRtr[r], int(n))
		}
	}
	for _, s := range specs {
		p.AttachTile(s)
	}
}

// Tile returns the tile with the given ID.
func (p *Platform) Tile(id TileID) *Tile {
	if id < 0 || int(id) >= len(p.Tiles) {
		panic(fmt.Sprintf("arch: tile id %d out of range", id))
	}
	return p.Tiles[id]
}

// TileByName returns the tile with the given name, or nil.
func (p *Platform) TileByName(name string) *Tile {
	id, ok := p.byName[name]
	if !ok {
		return nil
	}
	return p.Tiles[id]
}

// TilesOfType returns the IDs of the tiles of the given type in
// declaration order. The slice is the platform's own index, shared by
// every clone.
func (p *Platform) TilesOfType(tt TileType) []TileID { return p.ofType[tt] }

// TilesAtRouter returns the IDs of tiles attached to a router.
func (p *Platform) TilesAtRouter(r RouterID) []TileID { return p.atRtr[r] }

// TileTypes returns the set of tile types present, sorted for determinism.
func (p *Platform) TileTypes() []TileType {
	seen := make(map[TileType]bool)
	for _, t := range p.Tiles {
		seen[t.Type] = true
	}
	out := make([]TileType, 0, len(seen))
	for tt := range seen {
		out = append(out, tt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pos returns the mesh coordinate of the tile's router.
func (p *Platform) Pos(id TileID) Point { return p.Routers[p.Tile(id).Router].Pos }

// Manhattan returns the router-grid Manhattan distance between two tiles.
func (p *Platform) Manhattan(a, b TileID) int {
	return p.Pos(a).Manhattan(p.Pos(b))
}

// OutLinks returns the IDs of links leaving a router.
func (p *Platform) OutLinks(r RouterID) []LinkID { return p.out[r] }

// Link returns the link with the given ID.
func (p *Platform) Link(id LinkID) *Link {
	if id < 0 || int(id) >= len(p.Links) {
		panic(fmt.Sprintf("arch: link id %d out of range", id))
	}
	return p.Links[id]
}

// LinkBetween returns the directed link from router a to router b, or nil.
func (p *Platform) LinkBetween(a, b RouterID) *Link {
	for _, id := range p.out[a] {
		if l := p.Links[id]; l.To == b {
			return l
		}
	}
	return nil
}

// ResetReservations clears all resource reservations on tiles and links,
// returning the platform to its pristine state. The mapper calls this
// between independent mapping attempts; multi-application scenarios do not
// call it, so reservations of admitted applications persist.
func (p *Platform) ResetReservations() {
	for _, t := range p.Tiles {
		t.ReservedMem = 0
		t.ReservedInBps = 0
		t.ReservedOutBps = 0
		t.ReservedUtil = 0
		t.Occupants = 0
	}
	for _, l := range p.Links {
		l.ReservedBps = 0
	}
	p.version.Add(1)
}

// Clone returns a copy of the platform including reservation state, private
// to whoever holds it: CopyInto a new platform, five allocations whatever
// the mesh size. When p is shared between goroutines the caller holds
// whatever serializes its writes.
func (p *Platform) Clone() *Platform {
	q := &Platform{}
	p.CopyInto(q)
	return q
}

// CopyInto overwrites dst with a copy of p including reservation state,
// as Clone does, but into dst's storage: the immutable description —
// topology, lookup tables, TileInfo and LinkInfo — is shared, and the
// reservation state lands in dst's tile and link slabs whenever they are
// large enough, whatever platform they last held, so copying into a
// recycled platform allocates nothing. dst must not be p, and nothing may
// still hold a *Tile or *Link of dst's previous contents.
func (p *Platform) CopyInto(dst *Platform) {
	dst.Name, dst.Width, dst.Height, dst.NoCClockHz = p.Name, p.Width, p.Height, p.NoCClockHz
	dst.Routers, dst.out = p.Routers, p.out
	dst.byName, dst.atRtr, dst.ofType = p.byName, p.atRtr, p.ofType
	dst.version.Store(p.version.Load())
	tiles, tptrs := dst.tileSlab, dst.Tiles
	if n := len(p.Tiles); cap(tiles) < n || cap(tptrs) < n {
		tiles, tptrs = make([]Tile, n), make([]*Tile, n)
	}
	tiles, tptrs = tiles[:len(p.Tiles)], tptrs[:len(p.Tiles)]
	for i, t := range p.Tiles {
		tiles[i] = *t
		tptrs[i] = &tiles[i]
	}
	links, lptrs := dst.linkSlab, dst.Links
	if n := len(p.Links); cap(links) < n || cap(lptrs) < n {
		links, lptrs = make([]Link, n), make([]*Link, n)
	}
	links, lptrs = links[:len(p.Links)], lptrs[:len(p.Links)]
	for i, l := range p.Links {
		links[i] = *l
		lptrs[i] = &links[i]
	}
	dst.tileSlab, dst.Tiles, dst.linkSlab, dst.Links = tiles, tptrs, links, lptrs
}

// CloneCoW is Clone under the name the frozen benchmark calls
// (bench/sut.go); copy-on-write sharing is gone. Delete it with the next
// benchmark-only change.
func (p *Platform) CloneCoW() *Platform { return p.Clone() }

// String renders the platform as a coarse ASCII floor plan: one row per
// mesh row, each router shown as R with the names of attached tiles.
func (p *Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d×%d mesh, %d tiles\n", p.Name, p.Width, p.Height, len(p.Tiles))
	colW := 1
	cells := make([]string, len(p.Routers))
	for i, r := range p.Routers {
		names := make([]string, 0, 1)
		for _, tid := range p.atRtr[r.ID] {
			names = append(names, p.Tiles[tid].Name)
		}
		cell := "R"
		if len(names) > 0 {
			cell = "R[" + strings.Join(names, ",") + "]"
		}
		cells[i] = cell
		if len(cell) > colW {
			colW = len(cell)
		}
	}
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			fmt.Fprintf(&b, "%-*s ", colW, cells[y*p.Width+x])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
