package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"rtsm/internal/arch"
	"rtsm/internal/model"
)

// PlatformSpec is the JSON-serialisable description of an MPSoC.
type PlatformSpec struct {
	Name       string          `json:"name"`
	Width      int             `json:"width"`
	Height     int             `json:"height"`
	LinkCapBps int64           `json:"linkCapBps"`
	NoCClockHz int64           `json:"nocClockHz,omitempty"`
	Tiles      []arch.TileSpec `json:"tiles"`
}

// Build instantiates the platform.
func (s *PlatformSpec) Build() (*arch.Platform, error) {
	if s.Width <= 0 || s.Height <= 0 {
		return nil, fmt.Errorf("workload: platform %q has invalid dimensions %d×%d", s.Name, s.Width, s.Height)
	}
	p := arch.NewMesh(s.Name, s.Width, s.Height, s.LinkCapBps)
	if s.NoCClockHz > 0 {
		p.NoCClockHz = s.NoCClockHz
	}
	for _, ts := range s.Tiles {
		if ts.At.X < 0 || ts.At.X >= s.Width || ts.At.Y < 0 || ts.At.Y >= s.Height {
			return nil, fmt.Errorf("workload: tile %q at %v outside the %d×%d mesh", ts.Name, ts.At, s.Width, s.Height)
		}
		p.AttachTile(ts)
	}
	return p, nil
}

// SpecOf extracts the serialisable description from a platform.
func SpecOf(p *arch.Platform) PlatformSpec {
	s := PlatformSpec{
		Name:       p.Name,
		Width:      p.Width,
		Height:     p.Height,
		NoCClockHz: p.NoCClockHz,
	}
	if len(p.Links) > 0 {
		s.LinkCapBps = p.Links[0].CapBps
	}
	for _, t := range p.Tiles {
		s.Tiles = append(s.Tiles, arch.TileSpec{
			Name:         t.Name,
			Type:         t.Type,
			At:           p.Routers[t.Router].Pos,
			ClockHz:      t.ClockHz,
			MemBytes:     t.MemBytes,
			NICapBps:     t.NICapBps,
			MaxOccupants: t.MaxOccupants,
		})
	}
	return s
}

// Bundle packages everything one mapping run needs, for file-based use by
// cmd/spatialmap, which reads bundles and generates them.
type Bundle struct {
	Application     *model.Application      `json:"application"`
	Implementations []*model.Implementation `json:"implementations"`
	Platform        PlatformSpec            `json:"platform"`
}

// NewBundle assembles a bundle from in-memory objects.
func NewBundle(app *model.Application, lib *model.Library, plat *arch.Platform) *Bundle {
	b := &Bundle{Application: app, Platform: SpecOf(plat)}
	seen := make(map[*model.Implementation]bool)
	for _, p := range app.Processes {
		for _, im := range lib.For(p.Name) {
			if !seen[im] {
				seen[im] = true
				b.Implementations = append(b.Implementations, im)
			}
		}
	}
	return b
}

// Write serialises the bundle as indented JSON.
func (b *Bundle) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBundle parses and validates a bundle, returning ready-to-map
// objects.
func ReadBundle(r io.Reader) (*model.Application, *model.Library, *arch.Platform, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, nil, nil, fmt.Errorf("workload: parsing bundle: %w", err)
	}
	if b.Application == nil {
		return nil, nil, nil, fmt.Errorf("workload: bundle has no application")
	}
	if err := b.Application.Rebind(); err != nil {
		return nil, nil, nil, err
	}
	lib := model.NewLibrary()
	for _, im := range b.Implementations {
		if err := im.Validate(); err != nil {
			return nil, nil, nil, err
		}
		lib.Add(im)
	}
	plat, err := b.Platform.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return b.Application, lib, plat, nil
}
