package tpl

import (
	"fmt"

	"repro/internal/geom"
)

// LayerVias tracks the via occupancy of one via layer of the routing
// grid and answers the window and conflict queries the router and the
// DVI engine need: FVP detection (global and incremental), would-
// this-via-create-an-FVP checks (used both for via-site blocking,
// Fig 10, and for DVI kill computation), and same-color-pitch conflict
// counting (used by the TPLC routing cost).
//
// During negotiated-congestion routing more than one net may transiently
// place a via on the same site, so each site holds a count rather than
// a bit.
type LayerVias struct {
	w, h  int
	count []uint16
	vias  int
}

// NewLayerVias returns an empty via layer over a w×h grid of via sites.
func NewLayerVias(w, h int) *LayerVias {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("tpl: invalid via layer dims %dx%d", w, h))
	}
	return &LayerVias{w: w, h: h, count: make([]uint16, w*h)}
}

// Dims returns the grid dimensions.
func (lv *LayerVias) Dims() (w, h int) { return lv.w, lv.h }

// Clear empties the layer in place, retaining its storage for reuse.
func (lv *LayerVias) Clear() {
	clear(lv.count)
	lv.vias = 0
}

// InBounds reports whether p is a valid via site.
func (lv *LayerVias) InBounds(p geom.Pt) bool {
	return p.X >= 0 && p.X < lv.w && p.Y >= 0 && p.Y < lv.h
}

func (lv *LayerVias) idx(p geom.Pt) int { return p.Y*lv.w + p.X }

// Add places one via at p.
func (lv *LayerVias) Add(p geom.Pt) {
	lv.count[lv.idx(p)]++
	lv.vias++
}

// Remove removes one via at p. It panics if the site is empty, which
// would indicate desynchronized bookkeeping in the caller.
func (lv *LayerVias) Remove(p geom.Pt) {
	i := lv.idx(p)
	if lv.count[i] == 0 {
		panic(fmt.Sprintf("tpl: Remove of absent via at %v", p))
	}
	lv.count[i]--
	lv.vias--
}

// Has reports whether at least one via occupies p.
func (lv *LayerVias) Has(p geom.Pt) bool {
	return lv.InBounds(p) && lv.count[lv.idx(p)] > 0
}

// Len returns the total via count (multiply-occupied sites counted with
// multiplicity).
func (lv *LayerVias) Len() int { return lv.vias }

// SiteList returns all occupied sites in row-major order.
func (lv *LayerVias) SiteList() []geom.Pt {
	return lv.AppendSites(nil)
}

// AppendSites appends all occupied sites (once per site, regardless of
// multiplicity) in row-major order to pts and returns the extended
// slice. Callers on hot paths pass a recycled buffer (pts[:0]) to
// avoid the per-call allocation of SiteList.
//
//sadplint:hotpath snapshots the via set once per TPL bookkeeping pass
func (lv *LayerVias) AppendSites(pts []geom.Pt) []geom.Pt {
	if cap(pts)-len(pts) < lv.vias {
		grown := make([]geom.Pt, len(pts), len(pts)+lv.vias)
		copy(grown, pts)
		pts = grown
	}
	for y := 0; y < lv.h; y++ {
		row := lv.count[y*lv.w : (y+1)*lv.w]
		for x := range row {
			if row[x] > 0 {
				pts = append(pts, geom.XY(x, y))
			}
		}
	}
	return pts
}

// WindowAt extracts the 3×3 window whose lower-left corner is origin.
// Sites outside the grid read as empty.
//
//sadplint:hotpath window extraction runs per candidate site in the recolor loop
func (lv *LayerVias) WindowAt(origin geom.Pt) Window {
	var w Window
	for dy := 0; dy < 3; dy++ {
		y := origin.Y + dy
		if y < 0 || y >= lv.h {
			continue
		}
		for dx := 0; dx < 3; dx++ {
			x := origin.X + dx
			if x < 0 || x >= lv.w {
				continue
			}
			if lv.count[y*lv.w+x] > 0 {
				w = w.Set(dx, dy)
			}
		}
	}
	return w
}

// windowOrigins calls fn with the origin of every 3×3 window that
// contains site p (up to 9, fewer at the grid border). Window origins
// range over the full grid so border windows are included.
func (lv *LayerVias) windowOrigins(p geom.Pt, fn func(geom.Pt)) {
	for dy := -2; dy <= 0; dy++ {
		for dx := -2; dx <= 0; dx++ {
			fn(geom.XY(p.X+dx, p.Y+dy))
		}
	}
}

// FVPsTouching returns the origins of every FVP window containing p.
func (lv *LayerVias) FVPsTouching(p geom.Pt) []geom.Pt {
	var out []geom.Pt
	lv.windowOrigins(p, func(o geom.Pt) {
		if lv.WindowAt(o).IsFVP() {
			out = append(out, o)
		}
	})
	return out
}

// AllFVPs scans the full grid (O(n) windows) and returns the origin of
// every FVP window in row-major order.
func (lv *LayerVias) AllFVPs() []geom.Pt {
	var out []geom.Pt
	for y := -2; y < lv.h; y++ {
		for x := -2; x < lv.w; x++ {
			o := geom.XY(x, y)
			if lv.WindowAt(o).IsFVP() {
				out = append(out, o)
			}
		}
	}
	return out
}

// HasFVP reports whether any FVP window exists on the layer.
func (lv *LayerVias) HasFVP() bool {
	for y := -2; y < lv.h; y++ {
		for x := -2; x < lv.w; x++ {
			if lv.WindowAt(geom.XY(x, y)).IsFVP() {
				return true
			}
		}
	}
	return false
}

// ProbeRadius is the farthest, in Chebyshev distance, WouldCreateFVP
// reads from its site: the nine 3×3 windows containing p span p's 5×5
// neighbourhood.
const ProbeRadius = 2

// WouldCreateFVP reports whether inserting one additional via at p
// would create at least one FVP window. Used for via-site blocking in
// the TPL violation removal R&R (Fig 10) and for the DVI kill rule.
// It reads p's 5×5 neighbourhood once and tests the nine 3×3 windows
// containing p from that mask, so each site is read once, not once per
// window.
//
//sadplint:hotpath probed per candidate via site in search and DVI cost loops
func (lv *LayerVias) WouldCreateFVP(p geom.Pt) bool {
	if !lv.InBounds(p) || lv.count[lv.idx(p)] > 0 {
		// An occupied site gains no via: no window changes.
		return false
	}
	return fvpAround(lv.neighbourhood(p))
}

// neighbourhood returns the occupancy of the 5×5 block centred on p as
// a 25-bit mask, bit (dx+2) + 5·(dy+2) for the site p+(dx, dy). Sites
// outside the grid read as empty.
func (lv *LayerVias) neighbourhood(p geom.Pt) uint32 {
	var m uint32
	if p.X >= 2 && p.X+2 < lv.w && p.Y >= 2 && p.Y+2 < lv.h {
		// Interior: five full rows of five sites.
		for r := 0; r < 5; r++ {
			at := (p.Y-2+r)*lv.w + p.X - 2
			row := lv.count[at : at+5 : at+5]
			for c, n := range row {
				if n > 0 {
					m |= 1 << (c + 5*r)
				}
			}
		}
		return m
	}
	for dy := -2; dy <= 2; dy++ {
		y := p.Y + dy
		if y < 0 || y >= lv.h {
			continue
		}
		row := lv.count[y*lv.w : (y+1)*lv.w]
		for dx := -2; dx <= 2; dx++ {
			if x := p.X + dx; x >= 0 && x < lv.w && row[x] > 0 {
				m |= 1 << ((dx + 2) + 5*(dy+2))
			}
		}
	}
	return m
}

// fvpAround reports whether a via added at the centre of the 5×5
// neighbourhood m makes one of the nine 3×3 windows containing the
// centre a forbidden via pattern.
func fvpAround(m uint32) bool {
	m |= 1 << 12 // the new via
	for oy := 0; oy < 3; oy++ {
		for ox := 0; ox < 3; ox++ {
			r := m >> (ox + 5*oy)
			if Window(r&7 | (r>>5&7)<<3 | (r>>10&7)<<6).IsFVP() {
				return true
			}
		}
	}
	return false
}

// Conflicts returns the number of occupied sites within the same-color
// via pitch of p (excluding p itself; multiply-occupied sites count
// once).
func (lv *LayerVias) Conflicts(p geom.Pt) int {
	n := 0
	for _, off := range ConflictOffsets {
		q := p.Add(off.X, off.Y)
		if lv.Has(q) {
			n++
		}
	}
	return n
}

// ConflictSites calls fn for each occupied site within the same-color
// via pitch of p.
func (lv *LayerVias) ConflictSites(p geom.Pt, fn func(geom.Pt)) {
	for _, off := range ConflictOffsets {
		q := p.Add(off.X, off.Y)
		if lv.Has(q) {
			fn(q)
		}
	}
}
