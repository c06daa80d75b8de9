// Package decompose synthesizes SADP masks from a routed layout and
// checks mask design rules — the end-to-end validator for the claim
// that color-pre-assigned routing solutions stay SADP decomposable
// (paper §II-B, Figs 1 and 4).
//
// The model follows the pre-assignment contract:
//
//   - SID (spacer-is-dielectric, trim approach): mandrels run along
//     black tracks; wires on black tracks print from the core mask,
//     wires on grey tracks print between spacers; the trim mask keeps
//     exactly the wanted metal.
//   - SIM (spacer-is-metal, cut approach): mandrels center in grey
//     panels; every wire is a spacer flank of a mandrel; the cut mask
//     removes unwanted spacer loops, in particular at line ends.
//
// DRC implemented on the synthesized masks:
//
//   - Hard: a forbidden L-turn (undecomposable corner, the rule the
//     router enforces) — re-derived here independently from the masks'
//     viewpoint via the coloring tables.
//   - Hard: two distinct mandrel segments on the same track closer
//     than the minimum end-to-end gap of 2 grid units (a 1-unit gap
//     cannot be patterned on the core mask).
//   - Warning: two cut/trim line-end shapes within 1 grid unit of each
//     other on different tracks (tight cut masks print with TPL in
//     practice; the paper does not constrain them in routing, so these
//     are reported but not fatal).
package decompose

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/grid"
)

// Severity grades a violation.
type Severity uint8

const (
	// Hard violations make the layout undecomposable.
	Hard Severity = iota
	// Warning violations are printable but cost cut-mask complexity.
	Warning
)

func (s Severity) String() string {
	if s == Hard {
		return "hard"
	}
	return "warning"
}

// Violation is one mask DRC finding.
type Violation struct {
	Severity Severity
	Layer    int
	At       geom.Pt
	Rule     string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: layer %d at %v: %s", v.Severity, v.Layer, v.At, v.Rule)
}

// Segment is a maximal straight run of mask material along a track.
type Segment struct {
	// Track is the cross-axis index (y for horizontal layers, x for
	// vertical ones).
	Track int
	// Lo, Hi are the inclusive along-axis extents.
	Lo, Hi int
}

// Masks is the decomposition of one routing layer.
type Masks struct {
	Layer int
	// Horizontal reports the layer's preferred direction.
	Horizontal bool
	// Mandrel holds core-mask segments.
	Mandrel []Segment
	// SpacerWires holds wire segments printed by spacers (not on the
	// core mask).
	SpacerWires []Segment
	// CutShapes holds cut/trim mask features at line ends.
	CutShapes []geom.Pt
}

// Result is the full-layout decomposition.
type Result struct {
	Scheme     coloring.Scheme
	Layers     []Masks
	Violations []Violation
}

// HardViolations returns only the fatal findings.
func (r *Result) HardViolations() []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Severity == Hard {
			out = append(out, v)
		}
	}
	return out
}

// Decompose synthesizes masks for every routing layer of a solution
// and runs the mask DRC. Arm masks and cut shapes live in dense
// per-layer arrays indexed like grid.PIdx, so no per-cell or per-cut
// step looks up a map or scans the cut list.
func Decompose(g *grid.Grid, routes []*grid.Route) *Result {
	res := &Result{Scheme: g.Scheme}
	arms := collectArms(g, routes)
	// cuts[PIdx] is 1 + the index of the layer's cut shape at that
	// cell, 0 when there is none. It is cleared between layers.
	cuts := make([]int32, g.W*g.H)
	for l := 0; l < g.NumLayers; l++ {
		m := synthesizeLayer(g, l, arms[l], cuts)
		res.Layers = append(res.Layers, m)
		res.Violations = append(res.Violations, drcLayer(g, l, m, arms[l], cuts)...)
		for _, c := range m.CutShapes {
			cuts[g.PIdx(c)] = 0
		}
	}
	return res
}

// collectArms unions each layer's metal arm masks over all routes into
// a dense array per layer. A planar step of a path sets the arm toward
// the other end at both of its points, exactly as grid.Route.ArmMask
// derives them.
func collectArms(g *grid.Grid, routes []*grid.Route) [][]uint8 {
	arms := make([][]uint8, g.NumLayers)
	for l := range arms {
		arms[l] = make([]uint8, g.W*g.H)
	}
	for _, r := range routes {
		if r == nil {
			continue
		}
		for _, path := range r.Paths {
			for i := 1; i < len(path); i++ {
				a, b := path[i-1], path[i]
				if d := a.DirTo(b); d.Planar() {
					arms[a.Layer][g.PIdx(a.Pt2())] |= armBit(d)
					arms[b.Layer][g.PIdx(b.Pt2())] |= armBit(d.Opposite())
				}
			}
		}
	}
	return arms
}

// wireSegments decomposes a layer's along-direction wire segments. For
// a horizontal layer the track is y and the run spans x.
func wireSegments(g *grid.Grid, l int, arms []uint8) []Segment {
	horizontal := g.PrefHorizontal(l)
	// A segment continues to the next cell along its track when the
	// current cell has the arm toward it: East on a horizontal layer,
	// North on a vertical one.
	tracks, span, fwd := g.H, g.W, armBit(geom.East)
	if !horizontal {
		tracks, span, fwd = g.W, g.H, armBit(geom.North)
	}
	at := func(track, along int) geom.Pt {
		if horizontal {
			return geom.XY(along, track)
		}
		return geom.XY(track, along)
	}
	occ := g.Metal[l]
	var segs []Segment
	for t := 0; t < tracks; t++ {
		lo := -1
		for a := 0; a < span; a++ {
			p := at(t, a)
			i := g.PIdx(p)
			onWire := arms[i] != 0 || occ.Occupied(p)
			if !onWire {
				lo = -1
				continue
			}
			if lo == -1 {
				lo = a
			}
			if a == span-1 || arms[i]&fwd == 0 {
				segs = append(segs, Segment{Track: t, Lo: lo, Hi: a})
				lo = -1
			}
		}
	}
	return segs
}

func armBit(d geom.Dir) uint8 {
	switch d {
	case geom.East:
		return 1
	case geom.West:
		return 2
	case geom.North:
		return 4
	case geom.South:
		return 8
	}
	return 0
}

// synthesizeLayer splits wire segments into mandrel-printed and
// spacer-printed, and derives cut/trim shapes at spacer line ends.
// Collinear mandrel segments closer than the minimum core-mask
// end-to-end gap (2 units) are merged into one mandrel and separated
// with a cut/trim shape in the gap — the standard line-end treatment
// of the cut approach. cuts must be all zero on entry; it returns
// holding the index of every cut shape added (see Decompose).
func synthesizeLayer(g *grid.Grid, l int, arms []uint8, cuts []int32) Masks {
	m := Masks{Layer: l, Horizontal: g.PrefHorizontal(l)}
	scheme := g.Scheme
	var mandrels []Segment
	for _, s := range wireSegments(g, l, arms) {
		if scheme.MandrelTrack(s.Track) {
			mandrels = append(mandrels, s)
		} else {
			m.SpacerWires = append(m.SpacerWires, s)
			// Cut/trim shapes sit in the empty cell beyond each line
			// end of a spacer wire: the cut removes the spacer loop
			// there. Coincident shapes (two line ends sharing a 1-unit
			// gap) merge into one cut.
			m.addCut(g, cuts, cutCell(m.Horizontal, s, true))
			m.addCut(g, cuts, cutCell(m.Horizontal, s, false))
		}
	}
	m.Mandrel = mergeCloseMandrels(&m, mandrels, g, cuts)
	return m
}

// addCut appends an in-plane cut shape unless one already sits at p.
func (m *Masks) addCut(g *grid.Grid, cuts []int32, p geom.Pt) {
	if !g.InPlane(p) || cuts[g.PIdx(p)] != 0 {
		return
	}
	m.CutShapes = append(m.CutShapes, p)
	cuts[g.PIdx(p)] = int32(len(m.CutShapes))
}

// mergeCloseMandrels merges same-track mandrel segments whose
// end-to-end gap is below 2, adding a cut shape per gap cell. Segments
// arrive grouped by track in ascending along-axis order from
// wireSegments.
func mergeCloseMandrels(m *Masks, segs []Segment, g *grid.Grid, cuts []int32) []Segment {
	var out []Segment
	for _, s := range segs {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Track == s.Track {
				if gap := segGap(*last, s); gap >= 0 && gap < 2 {
					for a := last.Hi + 1; a < s.Lo; a++ {
						if m.Horizontal {
							m.addCut(g, cuts, geom.XY(a, s.Track))
						} else {
							m.addCut(g, cuts, geom.XY(s.Track, a))
						}
					}
					last.Hi = s.Hi
					continue
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// cutCell is the cell just beyond a segment's line end.
func cutCell(horizontal bool, s Segment, lo bool) geom.Pt {
	a := s.Lo - 1
	if !lo {
		a = s.Hi + 1
	}
	if horizontal {
		return geom.XY(a, s.Track)
	}
	return geom.XY(s.Track, a)
}

func segEnd(horizontal bool, s Segment, lo bool) geom.Pt {
	a := s.Lo
	if !lo {
		a = s.Hi
	}
	if horizontal {
		return geom.XY(a, s.Track)
	}
	return geom.XY(s.Track, a)
}

// drcLayer checks the synthesized masks of one layer. cuts indexes
// m's cut shapes as synthesizeLayer left it.
func drcLayer(g *grid.Grid, l int, m Masks, arms []uint8, cuts []int32) []Violation {
	var out []Violation
	// Rule 1 (hard): forbidden corners. Exactly-two perpendicular arms
	// form an L; the coloring tables decide decomposability. Row-major
	// order keeps the violation list reproducible.
	for i, mask := range arms {
		if bits.OnesCount8(mask) != 2 {
			continue
		}
		p := geom.XY(i%g.W, i/g.W)
		d1, d2 := twoArms(mask)
		corner, ok := coloring.CornerOf(d1, d2)
		if !ok {
			continue
		}
		if g.Scheme.Turn(p, corner) == coloring.Forbidden {
			out = append(out, Violation{
				Severity: Hard, Layer: l, At: p,
				Rule: fmt.Sprintf("forbidden %v corner is undecomposable", corner),
			})
		}
	}
	// Rule 2 (hard): mandrel end-to-end gap ≥ 2 on the same track,
	// scanned in ascending track order for a reproducible report.
	byTrack := map[int][]Segment{}
	tracks := []int{}
	for _, s := range m.Mandrel {
		if byTrack[s.Track] == nil {
			tracks = append(tracks, s.Track)
		}
		byTrack[s.Track] = append(byTrack[s.Track], s)
	}
	sort.Ints(tracks)
	for _, t := range tracks {
		segs := byTrack[t]
		for i := 0; i < len(segs); i++ {
			for j := i + 1; j < len(segs); j++ {
				gap := segGap(segs[i], segs[j])
				if gap >= 0 && gap < 2 {
					out = append(out, Violation{
						Severity: Hard, Layer: l, At: segEnd(m.Horizontal, segs[i], false),
						Rule: fmt.Sprintf("mandrel end-to-end gap %d < 2", gap),
					})
				}
			}
		}
	}
	// Rule 3 (warning): crowded cut shapes. Distinct cuts within 2
	// units are printable (via TPL of the cut mask) but tight. The
	// partners of cut i are the later cuts in its 5×5 box; emitting
	// them in index order reproduces the all-pairs (i, j) order.
	var later []int32
	for i, a := range m.CutShapes {
		later = later[:0]
		for y := max(a.Y-2, 0); y <= min(a.Y+2, g.H-1); y++ {
			for x := max(a.X-2, 0); x <= min(a.X+2, g.W-1); x++ {
				if j := cuts[g.PIdx(geom.XY(x, y))] - 1; int(j) > i {
					later = append(later, j)
				}
			}
		}
		slices.Sort(later)
		for _, j := range later {
			out = append(out, Violation{
				Severity: Warning, Layer: l, At: a,
				Rule: fmt.Sprintf("cut shapes at %v and %v within 2 units", a, m.CutShapes[j]),
			})
		}
	}
	return out
}

func twoArms(mask uint8) (geom.Dir, geom.Dir) {
	var dirs []geom.Dir
	for _, d := range geom.PlanarDirs {
		if mask&armBit(d) != 0 {
			dirs = append(dirs, d)
		}
	}
	return dirs[0], dirs[1]
}

// segGap returns the empty distance between two non-overlapping
// segments on the same track, or -1 when they overlap or touch
// end-to-end ordering is violated.
func segGap(a, b Segment) int {
	if a.Lo > b.Lo {
		a, b = b, a
	}
	if b.Lo <= a.Hi {
		return -1 // overlapping or abutting runs merged upstream
	}
	return b.Lo - a.Hi - 1
}
