// Package arch models the heterogeneous tiled MPSoC the spatial mapper
// targets: processing tiles of different types, each attached through a
// network interface to a router of a mesh Network-on-Chip whose links
// provide guaranteed-throughput lanes (Hölzenspies et al., DATE 2008, §1.1
// and §4.3).
//
// The package is purely a platform description plus resource accounting.
// Routing algorithms live in package noc; the mapping policy lives in
// package core.
package arch

import "fmt"

// TileType identifies a kind of processing element. The paper's case study
// uses ARM cores and Montium coarse-grain reconfigurable cores, plus an A/D
// converter source and a sink; users may define arbitrary further types.
type TileType string

// Tile types used throughout the reproduction. These are ordinary values
// of TileType, not an exhaustive enumeration.
const (
	TypeARM     TileType = "ARM"
	TypeMontium TileType = "MONTIUM"
	TypeDSP     TileType = "DSP"
	TypeSource  TileType = "SRC"
	TypeSink    TileType = "SINK"
	TypeNone    TileType = "NONE" // filler tile with no processing element
)

// TileID indexes a tile within its Platform.
type TileID int

// RouterID indexes a router within its Platform's NoC.
type RouterID int

// NoTile is returned by lookups that found no tile.
const NoTile TileID = -1

// Point is a router coordinate in the mesh, x growing rightwards and y
// growing downwards (row 0 is the top row, matching Figure 2 of the paper).
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y int) Point { return Point{X: x, Y: y} }

// Manhattan returns the L1 distance between two points. The spatial
// mapper's step 2 uses it to estimate communication cost before concrete
// routes exist (paper §3, step 2).
func (p Point) Manhattan(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// String renders the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TileInfo is the immutable description of a tile: what it is and where
// it sits. It is written once by AttachTile and shared by every copy of
// the platform, so reading it needs no lock.
type TileInfo struct {
	ID   TileID
	Name string
	Type TileType
	// Router is the mesh router the tile's network interface attaches to.
	Router RouterID
	// ClockHz is the processing element's clock frequency. Worst-case
	// execution times of implementations are expressed in clock cycles of
	// the tile they run on.
	ClockHz int64
	// MemBytes is the tile-local data memory available to mapped
	// implementations and stream buffers.
	MemBytes int64
	// NICapBps is the aggregate bandwidth of the tile's network interface
	// in each direction.
	NICapBps int64
	// MaxOccupants caps how many processes the tile can serve at once;
	// 0 means unlimited. Coarse-grain reconfigurable tiles like the
	// Montium hold a single kernel configuration, so they use 1 — this is
	// what makes "both MONTIUMs are occupied" (paper §4.4) exclude all
	// further Montium implementations.
	MaxOccupants int
}

// Tile is one processing element plus its network interface: the shared
// description and this platform copy's reservation state. Platform.Clone
// copies Tile values into one slab, so the state is kept small.
type Tile struct {
	*TileInfo

	// Reserved resources. The mapper reserves resources as it commits
	// decisions and releases them when refinement rolls decisions back.
	ReservedMem    int64
	ReservedInBps  int64 // inbound NI bandwidth in use
	ReservedOutBps int64 // outbound NI bandwidth in use
	// ReservedUtil is the fraction of the processing element's time
	// already committed to mapped implementations, in [0, 1]. Expressing
	// the reservation as a fraction (rather than cycles per period) lets
	// applications with different periods share a tile consistently.
	ReservedUtil float64
	// Occupants counts processes currently assigned to the tile.
	Occupants int32
	// Failed marks the tile as faulted at run time. A failed tile offers
	// no free capacity (Residual reports it as exhausted and the mapper's
	// step 1 skips it) but keeps its reservation ledger intact, so the
	// residents being evacuated can still release what they hold.
	Failed bool
}

// CycleBudget returns the number of clock cycles available on the tile per
// period of the given duration in nanoseconds.
func (t *Tile) CycleBudget(periodNs int64) int64 {
	// cycles = periodNs * ClockHz / 1e9, computed to avoid overflow for
	// realistic clocks (<= ~10 GHz) and periods (<= seconds).
	return periodNs * (t.ClockHz / 1_000_000) / 1_000 // (ns * MHz) / 1000
}

// FreeMem returns the unreserved tile-local memory.
func (t *Tile) FreeMem() int64 { return t.MemBytes - t.ReservedMem }

// Router is one switching element of the mesh NoC.
type Router struct {
	ID  RouterID
	Pos Point
	// LatencyCycles is the worst-case traversal latency of the router.
	// The paper's NoC has buffered inputs with round-robin output
	// arbitration, bounding latency at 4 cycles (§4.3).
	LatencyCycles int64
}

// LinkID indexes a directed link within a Platform.
type LinkID int

// LinkInfo is the immutable description of a directed NoC connection
// between two routers, shared by every copy of the platform like TileInfo.
// Bidirectional physical links are modelled as two links.
type LinkInfo struct {
	ID       LinkID
	From, To RouterID
	CapBps   int64
}

// Link is a directed NoC link: the shared description and this platform
// copy's reservation state. Guaranteed-throughput lanes are modelled by
// capacity reservation: ReservedBps of CapBps is committed to
// already-routed channels.
type Link struct {
	*LinkInfo
	ReservedBps int64
	// Failed marks the link as faulted at run time. A failed link offers
	// no free capacity — FreeBps reports 0, which keeps it out of every
	// routing and validation path — while ReservedBps stays intact so
	// evacuating residents release exactly what they reserved.
	Failed bool
}

// FreeBps returns the link's unreserved capacity; a failed link has none.
func (l *Link) FreeBps() int64 {
	if l.Failed {
		return 0
	}
	return l.CapBps - l.ReservedBps
}
