// Package viz renders routing grids, routes, masks and via layers as
// ASCII art — the debugging view used while developing the router and
// by the examples. Rendering is deterministic and allocation-light so
// it can run inside tests.
package viz

import (
	"fmt"
	"strings"

	"repro/internal/decompose"
	"repro/internal/grid"
	"repro/internal/tpl"

	"repro/internal/geom"
)

// glyphs used by the layer renderer.
const (
	emptyGlyph    = '.'
	viaGlyph      = 'o'
	overflowGlyph = 'X'
	pinGlyph      = '#'
)

// netGlyph maps a net id to a stable printable rune.
func netGlyph(net int32) rune {
	const alphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	return rune(alphabet[int(net)%len(alphabet)])
}

// Options configure rendering.
type Options struct {
	// Window clips the render; the zero value renders the whole grid.
	Window geom.Rect
	// Pins marks the given layer-0 points with '#'.
	Pins []geom.Pt
}

func (o Options) window(g *grid.Grid) geom.Rect {
	if o.Window == (geom.Rect{}) {
		return g.Bounds()
	}
	return o.Window.Intersect(g.Bounds())
}

// Layer renders one routing layer: each occupied point shows its
// owner's glyph, overflows show 'X', via bases/landings show 'o' when
// unoccupied by wire (rare), pins '#'. Row 0 is printed at the bottom,
// matching layout coordinates.
func Layer(g *grid.Grid, l int, opt Options) string {
	win := opt.window(g)
	pins := map[geom.Pt]bool{}
	if l == 0 {
		for _, p := range opt.Pins {
			pins[p] = true
		}
	}
	var b strings.Builder
	var nets []int32
	fmt.Fprintf(&b, "metal %d (%s preferred)\n", l+2, prefName(g, l))
	for y := win.MaxY; y >= win.MinY; y-- {
		for x := win.MinX; x <= win.MaxX; x++ {
			p := geom.XY(x, y)
			var ch rune
			switch nets = g.Metal[l].AppendNets(nets[:0], p); {
			case g.Metal[l].Overflow(p):
				ch = overflowGlyph
			case len(nets) > 0:
				ch = netGlyph(nets[0])
			case pins[p]:
				ch = pinGlyph
			default:
				ch = emptyGlyph
			}
			b.WriteRune(ch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func prefName(g *grid.Grid, l int) string {
	if g.PrefHorizontal(l) {
		return "horizontal"
	}
	return "vertical"
}

// ViaLayer renders the via sites of one via layer ('o' for occupied),
// with '*' marking sites that participate in an FVP window.
func ViaLayer(g *grid.Grid, vl int, opt Options) string {
	win := opt.window(g)
	lv := g.Vias[vl]
	inFVP := map[geom.Pt]bool{}
	for _, o := range lv.AllFVPs() {
		for dy := 0; dy < 3; dy++ {
			for dx := 0; dx < 3; dx++ {
				p := o.Add(dx, dy)
				if lv.Has(p) {
					inFVP[p] = true
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "via layer %d (metal %d - metal %d)\n", vl, vl+2, vl+3)
	for y := win.MaxY; y >= win.MinY; y-- {
		for x := win.MinX; x <= win.MaxX; x++ {
			p := geom.XY(x, y)
			switch {
			case inFVP[p]:
				b.WriteByte('*')
			case lv.Has(p):
				b.WriteByte(byte(viaGlyph))
			default:
				b.WriteByte(byte(emptyGlyph))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Coloring renders a TPL coloring of via sites: digits 0..2 for
// colors, '!' for uncolorable, '.' empty.
func Coloring(g *grid.Grid, vl int, graph *tpl.Graph, colors []int8, opt Options) string {
	win := opt.window(g)
	colorAt := map[geom.Pt]int8{}
	for i, p := range graph.Pts {
		colorAt[p] = colors[i]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "via layer %d TPL coloring\n", vl)
	for y := win.MaxY; y >= win.MinY; y-- {
		for x := win.MinX; x <= win.MaxX; x++ {
			p := geom.XY(x, y)
			c, ok := colorAt[p]
			switch {
			case !ok:
				b.WriteByte(byte(emptyGlyph))
			case c == tpl.Uncolored:
				b.WriteByte('!')
			default:
				b.WriteByte(byte('0' + c))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Masks renders one layer's SADP decomposition: 'M' mandrel, 's'
// spacer wire, 'c' cut/trim shape, '.' empty. Overlaps prefer cut.
func Masks(g *grid.Grid, m decompose.Masks, opt Options) string {
	win := opt.window(g)
	kind := map[geom.Pt]byte{}
	mark := func(s decompose.Segment, glyph byte) {
		for a := s.Lo; a <= s.Hi; a++ {
			var p geom.Pt
			if m.Horizontal {
				p = geom.XY(a, s.Track)
			} else {
				p = geom.XY(s.Track, a)
			}
			kind[p] = glyph
		}
	}
	for _, s := range m.Mandrel {
		mark(s, 'M')
	}
	for _, s := range m.SpacerWires {
		mark(s, 's')
	}
	for _, c := range m.CutShapes {
		kind[c] = 'c'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "metal %d SADP masks (M=mandrel, s=spacer wire, c=cut/trim)\n", m.Layer+2)
	for y := win.MaxY; y >= win.MinY; y-- {
		for x := win.MinX; x <= win.MaxX; x++ {
			if g, ok := kind[geom.XY(x, y)]; ok {
				b.WriteByte(g)
			} else {
				b.WriteByte(byte(emptyGlyph))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
