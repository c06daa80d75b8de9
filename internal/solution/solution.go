// Package solution is the wire codec of a finished flow's solution: the
// routed geometry of every net and, when the flow ran double via
// insertion, its TPL-aware DVI assignment (§III-E). It is the
// include_solution payload of a service result, the bytes the cluster
// coordinator re-checks before it accepts an upload, and what the
// golden tests pin by digest.
//
// Version 2 is one JSON string, so a result embeds it as a raw
// message:
//
//	payload = `"` "v2" { ";" route } [ "|" { via } ] `"`
//	route   = "-" | [ path { "," path } ]
//	path    = x "." y "." layer { step }
//	step    = "E" | "W" | "N" | "S" | "U" | "D"
//	via     = cand color [ red ]
//	cand    = "E" | "W" | "N" | "S" | "-"
//	color   = "0" | "1" | "2" | "-"
//	red     = "0" | "1" | "2"
//
// The k-th route belongs to net k; "-" is a nil route and an empty
// route has no paths. A path is its first point, in decimal without
// leading zeros, plus one byte per unit step: east, west, north, south,
// up a layer, down a layer. The DVI section is present exactly when
// DVI ran. It lists every single via in dvi.NewInstance order (routes
// in net order, each route's vias in grid.Route.ViaList order): the
// direction of its inserted redundant via or "-" for none, its TPL
// color or "-" for uncolorable, and, when a redundant via was
// inserted, that via's color.
//
// Decode rejects an unknown version with ErrVersion, and a payload
// that does not re-encode to the same bytes with ErrNonCanonical, so
// one solution has exactly one encoding.
package solution

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/tpl"
)

// Version is the payload version Encode writes and Decode accepts.
const Version = 2

var (
	// ErrVersion reports a payload of another version, such as the
	// reflection-JSON route array of version 1.
	ErrVersion = errors.New("solution: unknown payload version")
	// ErrNonCanonical reports a payload that decodes but is not the
	// encoding of what it decodes to, such as a coordinate with a
	// leading zero.
	ErrNonCanonical = errors.New("solution: payload is not canonical")
	// ErrColor reports a via or redundant via color out of range.
	ErrColor = errors.New("solution: via color out of range")
)

// maxOrigin bounds a path's origin coordinates, so they parse without
// overflow on any platform.
const maxOrigin = 999_999_999

// stepByte is the payload byte of each unit step, indexed by geom.Dir;
// zero for geom.None.
var stepByte = [geom.NumDirs]byte{
	geom.East: 'E', geom.West: 'W', geom.North: 'N', geom.South: 'S', geom.Up: 'U', geom.Down: 'D',
}

// stepDir is the inverse of stepByte: geom.None for any other byte.
var stepDir = func() (t [256]geom.Dir) {
	for d, c := range stepByte {
		if c != 0 {
			t[c] = geom.Dir(d)
		}
	}
	return t
}()

// Payload is a decoded solution.
type Payload struct {
	// Routes is indexed by net ID; nil entries are nets the payload
	// lists no route for.
	Routes []*grid.Route
	// Instance and DVI hold the DVI solution, both nil when the flow
	// ran none. Instance lists the single vias of Routes in
	// dvi.NewInstance order, with one candidate for each via that has
	// a redundant via inserted and none for the others; it carries no
	// grid. DVI's statistics are recounted from the assignment.
	Instance *dvi.Instance
	DVI      *dvi.Solution
}

// Encode returns the payload of routes and, when in and sol are both
// non-nil, of the DVI solution sol of in, which must list the vias of
// routes in dvi.NewInstance order. It fails on anything the format
// cannot carry: a route at another net's index, an empty path, a step
// that is not a unit step, a negative origin, or a DVI assignment
// that names no adjacent candidate or a color out of range.
func Encode(routes []*grid.Route, in *dvi.Instance, sol *dvi.Solution) ([]byte, error) {
	size := 5 + len(routes)
	for _, r := range routes {
		if r != nil {
			for _, p := range r.Paths {
				size += 12 + len(p)
			}
		}
	}
	if in != nil {
		size += 3 * len(in.Vias)
	}
	b := make([]byte, 0, size)
	b = append(b, `"v`...)
	b = strconv.AppendInt(b, Version, 10)
	for i, r := range routes {
		b = append(b, ';')
		if r == nil {
			b = append(b, '-')
			continue
		}
		if int(r.Net) != i {
			return nil, fmt.Errorf("solution: route %d belongs to net %d", i, r.Net)
		}
		for k, p := range r.Paths {
			if k > 0 {
				b = append(b, ',')
			}
			if len(p) == 0 {
				return nil, fmt.Errorf("solution: net %d path %d is empty", i, k)
			}
			o := p[0]
			if min(o.X, o.Y, o.Layer) < 0 || max(o.X, o.Y, o.Layer) > maxOrigin {
				return nil, fmt.Errorf("solution: net %d path %d starts at %v, outside [0, %d]", i, k, o, maxOrigin)
			}
			b = strconv.AppendInt(b, int64(o.X), 10)
			b = append(b, '.')
			b = strconv.AppendInt(b, int64(o.Y), 10)
			b = append(b, '.')
			b = strconv.AppendInt(b, int64(o.Layer), 10)
			for j := 1; j < len(p); j++ {
				c := stepByte[p[j-1].DirTo(p[j])]
				if c == 0 {
					return nil, fmt.Errorf("solution: net %d path %d step %v -> %v is not a unit step", i, k, p[j-1], p[j])
				}
				b = append(b, c)
			}
		}
	}
	if in != nil && sol != nil {
		var err error
		if b, err = appendDVI(b, routes, in, sol); err != nil {
			return nil, err
		}
	}
	return append(b, '"'), nil
}

// appendDVI appends the DVI section: one entry per via of in, which
// must be the vias of routes in dvi.NewInstance order.
func appendDVI(b []byte, routes []*grid.Route, in *dvi.Instance, sol *dvi.Solution) ([]byte, error) {
	n := len(in.Vias)
	if len(in.Feas) != n || len(sol.Inserted) != n || len(sol.Colors) != n || len(sol.RedColors) != n {
		return nil, fmt.Errorf("solution: DVI arrays sized %d/%d/%d/%d for %d vias",
			len(in.Feas), len(sol.Inserted), len(sol.Colors), len(sol.RedColors), n)
	}
	b = append(b, '|')
	k := 0
	for _, r := range routes {
		if r == nil {
			continue
		}
		for _, base := range r.ViaList() {
			if k >= n || in.Vias[k] != (dvi.Via{Net: r.Net, Base: base}) {
				return nil, fmt.Errorf("solution: DVI instance via %d is not net %d's via at %v", k, r.Net, base)
			}
			cand := byte('-')
			if j := sol.Inserted[k]; j >= 0 {
				if j >= len(in.Feas[k]) {
					return nil, fmt.Errorf("solution: via %d inserted at candidate %d of %d", k, j, len(in.Feas[k]))
				}
				c := in.Feas[k][j]
				d := geom.XYL(base.X, base.Y, 0).DirTo(geom.XYL(c.X, c.Y, 0))
				if cand = stepByte[d]; !d.Planar() {
					return nil, fmt.Errorf("solution: via %d candidate %v is not adjacent to %v", k, c, base)
				}
			}
			b = append(b, cand)
			col, ok := colorByte(sol.Colors[k], true)
			if !ok {
				return nil, fmt.Errorf("solution: via %d: %w: %d", k, ErrColor, sol.Colors[k])
			}
			b = append(b, col)
			if cand != '-' {
				if col, ok = colorByte(sol.RedColors[k], false); !ok {
					return nil, fmt.Errorf("solution: redundant via of via %d: %w: %d", k, ErrColor, sol.RedColors[k])
				}
				b = append(b, col)
			}
			k++
		}
	}
	if k != n {
		return nil, fmt.Errorf("solution: DVI instance lists %d vias, routes have %d", n, k)
	}
	return b, nil
}

// colorByte is the payload byte of a TPL color; tpl.Uncolored is "-"
// where uncolored is allowed.
func colorByte(c int8, uncolored bool) (byte, bool) {
	switch {
	case c >= 0 && c < tpl.NumColors:
		return '0' + byte(c), true
	case c == tpl.Uncolored && uncolored:
		return '-', true
	}
	return 0, false
}

// Decode parses a payload. Beyond syntax errors it reports ErrVersion,
// ErrNonCanonical and ErrColor, each wrapped with its detail.
func Decode(b []byte) (*Payload, error) {
	d := decoder{b: b}
	p, err := d.payload()
	if err != nil {
		return nil, err
	}
	again, err := Encode(p.Routes, p.Instance, p.DVI)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNonCanonical, err)
	}
	if !bytes.Equal(again, b) {
		return nil, fmt.Errorf("%w: it re-encodes to %d other bytes", ErrNonCanonical, len(again))
	}
	return p, nil
}

type decoder struct {
	b   []byte
	pos int
}

// peek returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	if d.pos < len(d.b) {
		return d.b[d.pos]
	}
	return 0
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("solution: byte %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("want %q", c)
	}
	d.pos++
	return nil
}

// number parses a decimal of at most nine digits. Leading zeros parse;
// the re-encoding check rejects them.
func (d *decoder) number() (int, error) {
	start, n := d.pos, 0
	for c := d.peek(); c >= '0' && c <= '9'; c = d.peek() {
		if d.pos-start == 9 {
			return 0, d.errorf("number longer than 9 digits")
		}
		n = 10*n + int(c-'0')
		d.pos++
	}
	if d.pos == start {
		return 0, d.errorf("want a digit")
	}
	return n, nil
}

func (d *decoder) payload() (*Payload, error) {
	if d.peek() == '[' {
		return nil, fmt.Errorf("%w: a reflection-JSON route array (version 1)", ErrVersion)
	}
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	if err := d.expect('v'); err != nil {
		return nil, err
	}
	v, err := d.number()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w %d (want %d)", ErrVersion, v, Version)
	}
	p := &Payload{}
	if p.Routes, err = d.routes(); err != nil {
		return nil, err
	}
	if d.peek() == '|' {
		d.pos++
		if err := d.dvi(p); err != nil {
			return nil, err
		}
	}
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	if d.pos != len(d.b) {
		return nil, d.errorf("trailing bytes after the payload")
	}
	return p, nil
}

// routes parses the route list. Every path point lands in one backing
// array sized by a count of the step bytes and origins ahead.
func (d *decoder) routes() ([]*grid.Route, error) {
	head := d.b[d.pos:]
	if end := bytes.IndexAny(head, `|"`); end >= 0 {
		head = head[:end]
	}
	npts := 0
	for _, c := range head {
		if c == '.' || stepDir[c] != geom.None {
			npts++ // over-counts origins: two dots each
		}
	}
	pts := make([]geom.Pt3, 0, npts)
	routes := make([]*grid.Route, 0, bytes.Count(head, []byte{';'}))
	for d.peek() == ';' {
		d.pos++
		net := int32(len(routes))
		if d.peek() == '-' {
			d.pos++
			routes = append(routes, nil)
			continue
		}
		r := &grid.Route{Net: net}
		for c := d.peek(); c >= '0' && c <= '9'; c = d.peek() {
			start := len(pts)
			var o geom.Pt3
			var err error
			if o.X, err = d.number(); err != nil {
				return nil, err
			}
			if err = d.expect('.'); err != nil {
				return nil, err
			}
			if o.Y, err = d.number(); err != nil {
				return nil, err
			}
			if err = d.expect('.'); err != nil {
				return nil, err
			}
			if o.Layer, err = d.number(); err != nil {
				return nil, err
			}
			pts = append(pts, o)
			for dir := stepDir[d.peek()]; dir != geom.None; dir = stepDir[d.peek()] {
				pts = append(pts, pts[len(pts)-1].Step(dir))
				d.pos++
			}
			r.Paths = append(r.Paths, pts[start:len(pts):len(pts)])
			if d.peek() != ',' {
				break
			}
			d.pos++
			if c := d.peek(); c < '0' || c > '9' {
				return nil, d.errorf("want a path after ','")
			}
		}
		routes = append(routes, r)
	}
	return routes, nil
}

// dvi parses the DVI section against the vias of the decoded routes.
func (d *decoder) dvi(p *Payload) error {
	n := 0
	for _, r := range p.Routes {
		if r != nil {
			n += len(r.ViaList())
		}
	}
	in := &dvi.Instance{Routes: p.Routes, Vias: make([]dvi.Via, 0, n), Feas: make([][]geom.Pt, n)}
	sol := &dvi.Solution{Inserted: make([]int, n), Colors: make([]int8, n), RedColors: make([]int8, n)}
	cands := make([]geom.Pt, 0, n)
	for _, r := range p.Routes {
		if r == nil {
			continue
		}
		for _, base := range r.ViaList() {
			k := len(in.Vias)
			in.Vias = append(in.Vias, dvi.Via{Net: r.Net, Base: base})
			sol.Inserted[k], sol.RedColors[k] = -1, tpl.Uncolored
			c := d.peek()
			if c == '"' {
				return d.errorf("DVI section ends at via %d of %d", k, n)
			}
			dir := stepDir[c]
			if c != '-' && !dir.Planar() {
				return d.errorf("want a candidate direction or '-' for via %d", k)
			}
			d.pos++
			col, err := d.color(true)
			if err != nil {
				return err
			}
			sol.Colors[k] = col
			if col == tpl.Uncolored {
				sol.Uncolorable++
			}
			if c == '-' {
				sol.DeadVias++
				continue
			}
			if sol.RedColors[k], err = d.color(false); err != nil {
				return err
			}
			cands = append(cands, base.Pt2().Step(dir))
			in.Feas[k] = cands[len(cands)-1 : len(cands) : len(cands)]
			sol.Inserted[k] = 0
			sol.InsertedCount++
		}
	}
	p.Instance, p.DVI = in, sol
	return nil
}

// color parses one color byte: a digit in range, or "-" for uncolored
// where that is allowed. Any other digit, or "-" for a redundant via,
// is ErrColor.
func (d *decoder) color(uncolored bool) (int8, error) {
	c := d.peek()
	switch {
	case c >= '0' && c < '0'+tpl.NumColors:
		d.pos++
		return int8(c - '0'), nil
	case c == '-' && uncolored:
		d.pos++
		return tpl.Uncolored, nil
	case c >= '0' && c <= '9' || c == '-':
		return 0, fmt.Errorf("%w: %q at byte %d", ErrColor, c, d.pos)
	}
	return 0, d.errorf("want a color")
}
