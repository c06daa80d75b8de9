package decompose

import (
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/router"
)

// TestDecomposeMatchesReference: the linear-time Decompose returns a
// Result deeply equal to the original quadratic one — the same masks,
// the same cut-shape order, and the same violations in the same order
// with the same text — on routed layouts of the tiny, tiny multi-pin
// and quarter-size Table I suites under both SADP schemes.
func TestDecomposeMatchesReference(t *testing.T) {
	circuits := append(append(bench.TinySuite(), bench.TinyMultiPinSuite()...), bench.ScaledSuite(4)...)
	warnings := 0
	for _, typ := range []coloring.SADPType{coloring.SIM, coloring.SID} {
		for _, c := range circuits {
			rt, err := router.New(bench.Generate(c), router.Config{
				Scheme: coloring.Scheme{Type: typ}, ConsiderDVI: true, ConsiderTPL: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Run(); err != nil {
				t.Fatalf("%s %v: %v", c.Name, typ, err)
			}
			got := Decompose(rt.Grid(), rt.Routes())
			want := refDecompose(rt.Grid(), rt.Routes())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: Decompose differs from the reference:\n got %d violations, %d layers\nwant %d violations, %d layers",
					c.Name, typ, len(got.Violations), len(got.Layers), len(want.Violations), len(want.Layers))
			}
			warnings += len(got.Violations) - len(got.HardViolations())
		}
	}
	if warnings == 0 {
		t.Fatal("no cut-crowding warnings on any layout: Rule 3 went unexercised")
	}
}

// refDecompose and its ref* helpers are the original, quadratic mask
// DRC, kept as the reference the linear-time Decompose is checked
// against: per-layer arm maps with a map lookup per grid cell, cut-shape
// dedup by a linear scan per insert, and Rule 3 over every pair of cut
// shapes.
func refDecompose(g *grid.Grid, routes []*grid.Route) *Result {
	res := &Result{Scheme: g.Scheme}
	arms := refCollectArms(g, routes)
	for l := 0; l < g.NumLayers; l++ {
		m := refSynthesizeLayer(g, l, arms[l])
		res.Layers = append(res.Layers, m)
		res.Violations = append(res.Violations, refDrcLayer(g, l, m, arms[l])...)
	}
	return res
}

func refCollectArms(g *grid.Grid, routes []*grid.Route) []map[geom.Pt]uint8 {
	arms := make([]map[geom.Pt]uint8, g.NumLayers)
	for l := range arms {
		arms[l] = map[geom.Pt]uint8{}
	}
	for _, r := range routes {
		if r == nil || r.Empty() {
			continue
		}
		for _, p := range r.PointList() {
			arms[p.Layer][p.Pt2()] |= r.ArmMask(p)
		}
	}
	return arms
}

func refWireSegments(g *grid.Grid, l int, arms map[geom.Pt]uint8) []Segment {
	horizontal := g.PrefHorizontal(l)
	covered := func(p geom.Pt, q geom.Pt) bool {
		// Segment between p and q exists when either endpoint has the
		// arm toward the other.
		d := geom.Pt3{X: p.X, Y: p.Y}.DirTo(geom.Pt3{X: q.X, Y: q.Y})
		return arms[p]&armBit(d) != 0
	}
	var segs []Segment
	tracks, span := g.H, g.W
	if !horizontal {
		tracks, span = g.W, g.H
	}
	at := func(track, along int) geom.Pt {
		if horizontal {
			return geom.XY(along, track)
		}
		return geom.XY(track, along)
	}
	for t := 0; t < tracks; t++ {
		lo := -1
		for a := 0; a < span; a++ {
			p := at(t, a)
			onWire := arms[p] != 0 || g.Metal[l].Occupied(p)
			if onWire && lo == -1 {
				lo = a
			}
			endHere := false
			if onWire {
				if a == span-1 {
					endHere = true
				} else if !covered(p, at(t, a+1)) {
					endHere = true
				}
			}
			if endHere && lo != -1 {
				segs = append(segs, Segment{Track: t, Lo: lo, Hi: a})
				lo = -1
			}
			if !onWire {
				lo = -1
			}
		}
	}
	return segs
}

func refSynthesizeLayer(g *grid.Grid, l int, arms map[geom.Pt]uint8) Masks {
	m := Masks{Layer: l, Horizontal: g.PrefHorizontal(l)}
	scheme := g.Scheme
	var mandrels []Segment
	for _, s := range refWireSegments(g, l, arms) {
		if scheme.MandrelTrack(s.Track) {
			mandrels = append(mandrels, s)
		} else {
			m.SpacerWires = append(m.SpacerWires, s)
			// Cut/trim shapes sit in the empty cell beyond each line
			// end of a spacer wire: the cut removes the spacer loop
			// there. Coincident shapes (two line ends sharing a 1-unit
			// gap) merge into one cut.
			for _, e := range [2]geom.Pt{cutCell(m.Horizontal, s, true), cutCell(m.Horizontal, s, false)} {
				if g.InPlane(e) && !refContainsPt(m.CutShapes, e) {
					m.CutShapes = append(m.CutShapes, e)
				}
			}
		}
	}
	m.Mandrel = refMergeCloseMandrels(&m, mandrels, g)
	return m
}

func refMergeCloseMandrels(m *Masks, segs []Segment, g *grid.Grid) []Segment {
	var out []Segment
	for _, s := range segs {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Track == s.Track {
				if gap := segGap(*last, s); gap >= 0 && gap < 2 {
					for a := last.Hi + 1; a < s.Lo; a++ {
						var cutAt geom.Pt
						if m.Horizontal {
							cutAt = geom.XY(a, s.Track)
						} else {
							cutAt = geom.XY(s.Track, a)
						}
						if g.InPlane(cutAt) && !refContainsPt(m.CutShapes, cutAt) {
							m.CutShapes = append(m.CutShapes, cutAt)
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

func refContainsPt(pts []geom.Pt, p geom.Pt) bool {
	for _, q := range pts {
		if q == p {
			return true
		}
	}
	return false
}

func refDrcLayer(g *grid.Grid, l int, m Masks, arms map[geom.Pt]uint8) []Violation {
	var out []Violation
	// Rule 1 (hard): forbidden corners. Exactly-two perpendicular arms
	// form an L; the coloring tables decide decomposability. Row-major
	// order keeps the violation list reproducible.
	armPts := make([]geom.Pt, 0, len(arms))
	for p := range arms {
		armPts = append(armPts, p)
	}
	sort.Slice(armPts, func(i, j int) bool {
		if armPts[i].Y != armPts[j].Y {
			return armPts[i].Y < armPts[j].Y
		}
		return armPts[i].X < armPts[j].X
	})
	for _, p := range armPts {
		mask := arms[p]
		if bits.OnesCount8(mask) != 2 {
			continue
		}
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
	// units are printable (via TPL of the cut mask) but tight.
	for i := 0; i < len(m.CutShapes); i++ {
		for j := i + 1; j < len(m.CutShapes); j++ {
			a, b := m.CutShapes[i], m.CutShapes[j]
			if a.ChebyshevDist(b) <= 2 {
				out = append(out, Violation{
					Severity: Warning, Layer: l, At: a,
					Rule: fmt.Sprintf("cut shapes at %v and %v within 2 units", a, b),
				})
			}
		}
	}
	return out
}
