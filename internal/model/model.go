// Package model describes streaming applications the way the spatial
// mapper consumes them: a Kahn Process Network of processes and channels,
// the application-level QoS constraints (together the paper's Application
// Level Specification, §4.1), and the library of concrete implementations
// available per process and tile type (§4.2, Table 1).
package model

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
)

// ProcessID indexes a process within its Application.
type ProcessID int

// ChannelID indexes a channel within its Application.
type ChannelID int

// Process is one node of the KPN.
type Process struct {
	ID   ProcessID `json:"-"`
	Name string    `json:"name"`
	// PinnedTile names the tile the process must occupy, for fixed
	// endpoints such as the A/D converter and the Sink in the paper's
	// case study. Pinned processes need no implementation; the mapper
	// treats them as pre-placed.
	PinnedTile string `json:"pinnedTile,omitempty"`
	// Control marks processes outside the data stream, like the paper's
	// CTRL process: they participate in the KPN but are excluded from the
	// spatial mapping of the stream (paper §4.1).
	Control bool `json:"control,omitempty"`
}

// Channel is a KPN edge: a typed stream between two processes.
type Channel struct {
	ID   ChannelID `json:"-"`
	Name string    `json:"name"`
	Src  ProcessID `json:"src"`
	Dst  ProcessID `json:"dst"`
	// TokensPerPeriod is the number of tokens crossing the channel during
	// one QoS period (for HIPERLAN/2: per OFDM symbol; the edge labels of
	// the paper's Figure 1).
	TokensPerPeriod int64 `json:"tokensPerPeriod"`
	// TokenBytes is the size of one token in bytes (4 for the paper's
	// 32-bit complex samples).
	TokenBytes int64 `json:"tokenBytes"`
	// SrcPort and DstPort name the implementation ports this channel
	// binds to; implementations publish rate patterns per port name.
	SrcPort string `json:"srcPort"`
	DstPort string `json:"dstPort"`
}

// BytesPerPeriod returns the channel's traffic volume per QoS period.
func (c *Channel) BytesPerPeriod() int64 { return c.TokensPerPeriod * c.TokenBytes }

// Priority is an application's admission QoS class. It does not change
// how the application is mapped — the four-step mapper is priority-blind —
// but it orders the manager's admission queue and decides who may preempt
// whom when the platform is full: an arrival of class p may displace
// running applications of strictly lower class. The zero value is
// BestEffort, so untagged specs keep the pre-priority behaviour.
type Priority int

const (
	// BestEffort is the default class: admitted when resources allow,
	// first to be preempted when a higher class needs the platform.
	BestEffort Priority = iota
	// Standard is the middle class for ordinary interactive workloads.
	Standard
	// Critical is the latency-critical class (e.g. a live baseband
	// receiver): it jumps the admission queue and may preempt lower
	// classes when the mesh is full.
	Critical
)

// NumPriorities is the number of admission classes, for per-class arrays.
const NumPriorities = int(Critical) + 1

// Clamp folds an out-of-range class into the valid range, so a wild
// value cannot index outside a per-class array. The manager's queues and
// ledger, the stream server's stages and its dead-letter queue all bucket
// by it, so they agree on where a wild value lands.
func (p Priority) Clamp() Priority {
	return min(max(p, BestEffort), Critical)
}

// String names the class for reports.
func (p Priority) String() string {
	switch p {
	case BestEffort:
		return "best-effort"
	case Standard:
		return "standard"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("priority-%d", int(p))
}

// QoS holds the application's constraints (paper §1.3: throughput
// requirements and latency bounds).
type QoS struct {
	// PeriodNs is the required steady-state period: the application must
	// complete one iteration (e.g. one OFDM symbol) every PeriodNs.
	PeriodNs int64 `json:"periodNs"`
	// LatencyNs bounds the end-to-end latency of one iteration; zero
	// means unconstrained.
	LatencyNs int64 `json:"latencyNs,omitempty"`
	// Priority is the admission class; it never influences the mapping
	// itself, only queue order and preemption (see manager).
	Priority Priority `json:"priority,omitempty"`
}

// Application is a complete ALS: the KPN plus QoS constraints.
type Application struct {
	Name      string     `json:"name"`
	Processes []*Process `json:"processes"`
	Channels  []*Channel `json:"channels"`
	QoS       QoS        `json:"qos"`

	byName map[string]ProcessID
}

// NewApplication returns an empty application with the given QoS.
func NewApplication(name string, qos QoS) *Application {
	return &Application{Name: name, QoS: qos, byName: make(map[string]ProcessID)}
}

// AddProcess appends a process and returns it. Declaration order matters:
// the mapper breaks desirability ties in declaration order, which encodes
// the paper's tie-breaking in the worked example.
func (a *Application) AddProcess(name string) *Process {
	return a.addProcess(&Process{Name: name})
}

// AddPinnedProcess appends a process fixed to the named tile.
func (a *Application) AddPinnedProcess(name, tile string) *Process {
	return a.addProcess(&Process{Name: name, PinnedTile: tile})
}

// AddControlProcess appends a control process excluded from the stream
// mapping.
func (a *Application) AddControlProcess(name string) *Process {
	return a.addProcess(&Process{Name: name, Control: true})
}

func (a *Application) addProcess(p *Process) *Process {
	if a.byName == nil {
		a.byName = make(map[string]ProcessID)
	}
	if _, dup := a.byName[p.Name]; dup {
		panic(fmt.Sprintf("model: duplicate process %q", p.Name))
	}
	p.ID = ProcessID(len(a.Processes))
	a.Processes = append(a.Processes, p)
	a.byName[p.Name] = p.ID
	return p
}

// Connect adds a channel between two processes using the default port
// names "out" and "in".
func (a *Application) Connect(src, dst *Process, tokensPerPeriod, tokenBytes int64) *Channel {
	return a.ConnectPorts(src, "out", dst, "in", tokensPerPeriod, tokenBytes)
}

// ConnectPorts adds a channel binding the named source and destination
// ports.
func (a *Application) ConnectPorts(src *Process, srcPort string, dst *Process, dstPort string, tokensPerPeriod, tokenBytes int64) *Channel {
	c := &Channel{
		ID:              ChannelID(len(a.Channels)),
		Name:            fmt.Sprintf("%s→%s", src.Name, dst.Name),
		Src:             src.ID,
		Dst:             dst.ID,
		TokensPerPeriod: tokensPerPeriod,
		TokenBytes:      tokenBytes,
		SrcPort:         srcPort,
		DstPort:         dstPort,
	}
	a.Channels = append(a.Channels, c)
	return c
}

// Process returns the process with the given ID.
func (a *Application) Process(id ProcessID) *Process { return a.Processes[id] }

// ProcessByName returns the named process, or nil.
func (a *Application) ProcessByName(name string) *Process {
	id, ok := a.byName[name]
	if !ok {
		return nil
	}
	return a.Processes[id]
}

// Channel returns the channel with the given ID.
func (a *Application) Channel(id ChannelID) *Channel { return a.Channels[id] }

// Mappable reports whether the spatial mapper must place the process:
// neither pinned nor a control process.
func (p *Process) Mappable() bool { return p.PinnedTile == "" && !p.Control }

// MappableProcesses returns the processes the spatial mapper must place,
// in declaration order.
func (a *Application) MappableProcesses() []*Process {
	var out []*Process
	for _, p := range a.Processes {
		if p.Mappable() {
			out = append(out, p)
		}
	}
	return out
}

// StreamChannels returns the channels belonging to the data stream: both
// endpoints are non-control processes.
func (a *Application) StreamChannels() []*Channel {
	out := make([]*Channel, 0, len(a.Channels))
	for _, c := range a.Channels {
		if a.InStream(c) {
			out = append(out, c)
		}
	}
	return out
}

// InStream reports whether the channel belongs to the data stream.
func (a *Application) InStream(c *Channel) bool {
	return !a.Processes[c.Src].Control && !a.Processes[c.Dst].Control
}

// ChannelsOf returns the stream channels incident to process p.
func (a *Application) ChannelsOf(p ProcessID) []*Channel {
	var out []*Channel
	for _, c := range a.Channels {
		if (c.Src == p || c.Dst == p) && a.InStream(c) {
			out = append(out, c)
		}
	}
	return out
}

// Validate checks referential integrity and QoS sanity.
func (a *Application) Validate() error {
	if a.QoS.PeriodNs <= 0 {
		return fmt.Errorf("model: application %q has no period constraint", a.Name)
	}
	if a.QoS.LatencyNs < 0 {
		return fmt.Errorf("model: application %q has negative latency bound", a.Name)
	}
	if len(a.Processes) == 0 {
		return fmt.Errorf("model: application %q has no processes", a.Name)
	}
	for _, c := range a.Channels {
		if int(c.Src) >= len(a.Processes) || int(c.Dst) >= len(a.Processes) || c.Src < 0 || c.Dst < 0 {
			return fmt.Errorf("model: channel %q references unknown process", c.Name)
		}
		if c.Src == c.Dst {
			return fmt.Errorf("model: channel %q is a self-loop", c.Name)
		}
		if c.TokensPerPeriod <= 0 {
			return fmt.Errorf("model: channel %q transfers no tokens", c.Name)
		}
		if c.TokenBytes <= 0 {
			return fmt.Errorf("model: channel %q has no token size", c.Name)
		}
	}
	return nil
}

// Rebind restores internal indices after JSON decoding.
func (a *Application) Rebind() error {
	a.byName = make(map[string]ProcessID, len(a.Processes))
	for i, p := range a.Processes {
		p.ID = ProcessID(i)
		if _, dup := a.byName[p.Name]; dup {
			return fmt.Errorf("model: duplicate process %q", p.Name)
		}
		a.byName[p.Name] = p.ID
	}
	for i, c := range a.Channels {
		c.ID = ChannelID(i)
	}
	return a.Validate()
}

// AppendKey appends the application's structural identity to b: the
// period and latency bounds, then every process and channel in
// declaration order. The name and the priority are left out, since they
// change how an arrival is queued, not how it maps. With Library.Key
// per process it is the input of the manager's template fingerprint.
func (a *Application) AppendKey(b []byte) []byte {
	b = appendI64(b, a.QoS.PeriodNs)
	b = appendI64(b, a.QoS.LatencyNs)
	b = appendI64(b, int64(len(a.Processes)))
	for _, p := range a.Processes {
		b = appendStr(b, p.Name)
		b = appendStr(b, p.PinnedTile)
		b = appendBool(b, p.Control)
	}
	b = appendI64(b, int64(len(a.Channels)))
	for _, c := range a.Channels {
		b = appendStr(b, c.Name)
		b = appendI64(b, int64(c.Src))
		b = appendI64(b, int64(c.Dst))
		b = appendI64(b, c.TokensPerPeriod)
		b = appendI64(b, c.TokenBytes)
		b = appendStr(b, c.SrcPort)
		b = appendStr(b, c.DstPort)
	}
	return b
}

// The key encodings are unambiguous: every variable-length field is
// length-prefixed, so no two distinct specs share an encoding. The
// helpers append to and return the buffer, as strconv's do, so a
// caller's stack buffer can stay on the stack.

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendStr(b []byte, s string) []byte {
	return append(appendI64(b, int64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Implementation is one concrete realisation of a process for one tile
// type, specified as a CSDF actor with per-port rate patterns (the rows of
// the paper's Table 1).
type Implementation struct {
	// Process names the KPN process this implements.
	Process string `json:"process"`
	// TileType is the processing-element type the implementation runs on.
	TileType arch.TileType `json:"tileType"`
	// WCET holds per-phase worst-case execution times in clock cycles of
	// the target tile.
	WCET csdf.Pattern `json:"wcet"`
	// In and Out map port names to per-phase consumption and production
	// patterns; lengths must equal len(WCET).
	In  map[string]csdf.Pattern `json:"in,omitempty"`
	Out map[string]csdf.Pattern `json:"out,omitempty"`
	// EnergyPerPeriod is the average energy in nJ the implementation
	// spends per QoS period (Table 1's "Avg. energy [nJ/symbol]").
	EnergyPerPeriod float64 `json:"energyPerPeriod"`
	// MemBytes is the tile-local memory footprint (code + state, without
	// stream buffers).
	MemBytes int64 `json:"memBytes"`
}

// Phases returns the implementation's CSDF phase count.
func (im *Implementation) Phases() int { return len(im.WCET) }

// String identifies the implementation for traces and errors.
func (im *Implementation) String() string {
	return im.Process + "@" + string(im.TileType)
}

// Validate checks pattern shape consistency.
func (im *Implementation) Validate() error {
	if len(im.WCET) == 0 {
		return fmt.Errorf("model: implementation %s has no phases", im)
	}
	for port, p := range im.In {
		if len(p) != len(im.WCET) {
			return fmt.Errorf("model: implementation %s: input port %q has %d phases, WCET has %d",
				im, port, len(p), len(im.WCET))
		}
	}
	for port, p := range im.Out {
		if len(p) != len(im.WCET) {
			return fmt.Errorf("model: implementation %s: output port %q has %d phases, WCET has %d",
				im, port, len(p), len(im.WCET))
		}
	}
	return nil
}

// appendKey appends the implementation's identity to b: every field,
// port maps in sorted-key order so equal structures encode equally.
func (im *Implementation) appendKey(b []byte) []byte {
	b = appendStr(b, im.Process)
	b = appendStr(b, string(im.TileType))
	b = appendPattern(b, im.WCET)
	b = appendPorts(b, im.In)
	b = appendPorts(b, im.Out)
	b = appendI64(b, int64(math.Float64bits(im.EnergyPerPeriod)))
	return appendI64(b, im.MemBytes)
}

func appendPattern(b []byte, p csdf.Pattern) []byte {
	b = appendI64(b, int64(len(p)))
	for _, v := range p {
		b = appendI64(b, v)
	}
	return b
}

func appendPorts(b []byte, m map[string]csdf.Pattern) []byte {
	keys := slices.Sorted(maps.Keys(m))
	b = appendI64(b, int64(len(keys)))
	for _, k := range keys {
		b = appendStr(b, k)
		b = appendPattern(b, m[k])
	}
	return b
}

// CyclesPerPeriod returns the processing cycles the implementation needs
// per QoS period when serving channel traffic of the given application:
// the firings per period (channel tokens divided by the port's rate sum)
// times the cycles per full phase cycle. An error is reported when no
// attached stream channel binds to a known port or when channel rates are
// inconsistent with the patterns.
func (im *Implementation) CyclesPerPeriod(app *Application, p *Process) (int64, error) {
	cycles := im.WCET.Sum()
	for _, c := range app.Channels {
		var pat csdf.Pattern
		switch {
		case !app.InStream(c):
		case c.Dst == p.ID:
			pat = im.In[c.DstPort]
		case c.Src == p.ID:
			pat = im.Out[c.SrcPort]
		}
		if pat == nil {
			continue
		}
		sum := pat.Sum()
		if sum == 0 {
			return 0, fmt.Errorf("model: %s: port bound to channel %q never transfers", im, c.Name)
		}
		if c.TokensPerPeriod%sum != 0 {
			return 0, fmt.Errorf("model: %s: channel %q carries %d tokens/period, not a multiple of the pattern total %d",
				im, c.Name, c.TokensPerPeriod, sum)
		}
		return cycles * (c.TokensPerPeriod / sum), nil
	}
	return 0, fmt.Errorf("model: %s: no stream channel binds to any of its ports", im)
}

// Library is the run-time catalogue of available implementations, indexed
// by process name. Any number of goroutines may read a library at once,
// Key included; Add must not run beside them.
type Library struct {
	impls map[string][]*Implementation
	// keys holds each process's Key, built on first use and dropped by
	// Add, so a key never describes fewer implementations than For.
	keys atomic.Pointer[map[string][]byte]
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{impls: make(map[string][]*Implementation)} }

// Add registers an implementation. It panics on shape errors so that
// malformed libraries fail loudly at construction.
func (l *Library) Add(im *Implementation) *Library {
	if err := im.Validate(); err != nil {
		panic(err)
	}
	l.impls[im.Process] = append(l.impls[im.Process], im)
	l.keys.Store(nil)
	return l
}

// Key returns the identity of the named process's implementations: each
// one's every field, in registration order, which encodes the paper's
// tie-breaking. The bytes are built once per library, with each port
// map's keys sorted once, and shared: the caller must not modify them.
// Concurrent first calls each build the same bytes; the last one's stay.
func (l *Library) Key(process string) []byte {
	keys := l.keys.Load()
	if keys == nil {
		m := make(map[string][]byte, len(l.impls))
		for name, ims := range l.impls {
			var b []byte
			for _, im := range ims {
				b = im.appendKey(b)
			}
			m[name] = b
		}
		keys = &m
		l.keys.Store(keys)
	}
	return (*keys)[process]
}

// For returns the implementations of the named process, in registration
// order.
func (l *Library) For(process string) []*Implementation { return l.impls[process] }

// ForType returns the implementation of the named process for the given
// tile type, or nil.
func (l *Library) ForType(process string, tt arch.TileType) *Implementation {
	for _, im := range l.impls[process] {
		if im.TileType == tt {
			return im
		}
	}
	return nil
}

// Processes returns the number of distinct processes with implementations.
func (l *Library) Processes() int { return len(l.impls) }
