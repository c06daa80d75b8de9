// Package verify is an independent checker for routed solutions of the
// SADP-aware detailed routing flow. It re-validates, from scratch and
// with no code shared with the producing algorithms (the router's
// search and turn tables, the TPL R&R phase, tpl.Window's O(1) FVP
// rules, the DVI heuristic and ILP), that a solution is actually legal:
//
//  1. Geometry: every path step is a unit grid step, every point is on
//     the grid, every net covers all of its pins in a single connected
//     component, no two nets share a metal point or via site, and no
//     route crosses another net's pin terminal.
//  2. SADP color rules: every L-shaped turn (a point with exactly two
//     perpendicular metal arms) is classified against a re-derived
//     parity formula for the chosen SIM/SID mode and must not be
//     forbidden.
//  3. Via manufacturability (when the flow considered TPL): no 3×3 via
//     window is a forbidden via pattern — decided here by brute-force
//     3-coloring of the window's conflict graph, not the paper's O(1)
//     rules — and each via layer's full decomposition graph is
//     3-colorable (independent greedy coloring with an exact
//     backtracking fallback).
//  4. DVI: every inserted redundant via sits at a candidate that the
//     verifier's own feasibility re-check accepts, no two vias collide,
//     the TPL coloring of originals plus insertions is proper, and the
//     solution's reported statistics match a recount (constraints
//     C1–C8 of §III-E).
//
// The checker consumes only solution data (netlist, route polylines,
// DVI assignment) and deliberately rebuilds occupancy, arm masks, via
// sets and conflict graphs itself, so a bookkeeping bug in the
// producers cannot hide from it.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
)

// Kind classifies a violation.
type Kind uint8

const (
	// BadStep: consecutive path points are not one grid step apart.
	BadStep Kind = iota
	// OffGrid: a path point lies outside the W×H×layers grid.
	OffGrid
	// Unrouted: a net has no route geometry at all.
	Unrouted
	// PinMissing: a net's route does not cover one of its pins.
	PinMissing
	// Disconnected: a net's metal is not a single connected component.
	Disconnected
	// MetalShort: two distinct nets occupy the same metal point.
	MetalShort
	// ViaShort: two distinct nets place a via on the same site.
	ViaShort
	// PinObstruction: a route covers another net's pin terminal.
	PinObstruction
	// ForbiddenTurn: an L-shaped turn is forbidden under the SADP
	// color rules of the chosen mode.
	ForbiddenTurn
	// FVP: a 3×3 via window is a forbidden via pattern (its conflict
	// graph is not 3-colorable).
	FVP
	// NotThreeColorable: a via layer's full decomposition graph is not
	// 3-colorable.
	NotThreeColorable
	// VerifierLimit: the exact colorability check exceeded its budget;
	// the solution could not be proven clean (conservative failure).
	VerifierLimit
	// DVIViaMismatch: the DVI instance's via list does not match the
	// vias of the routed solution.
	DVIViaMismatch
	// DVIBadIndex: an insertion index is out of range of the via's
	// candidate list.
	DVIBadIndex
	// DVIInfeasible: an inserted redundant via fails the verifier's
	// independent feasibility re-check (occupancy or turn legality).
	DVIInfeasible
	// DVICollision: two inserted redundant vias share a site, or an
	// insertion lands on an existing via.
	DVICollision
	// DVIBadColor: a via color is out of range, or an inserted
	// redundant via has no color.
	DVIBadColor
	// DVIColorConflict: two same-colored vias lie within the
	// same-color via pitch on one via layer.
	DVIColorConflict
	// DVIStatsMismatch: the solution's reported counters disagree with
	// a recount of the assignment.
	DVIStatsMismatch
)

var kindNames = [...]string{
	BadStep:           "bad-step",
	OffGrid:           "off-grid",
	Unrouted:          "unrouted",
	PinMissing:        "pin-missing",
	Disconnected:      "disconnected",
	MetalShort:        "metal-short",
	ViaShort:          "via-short",
	PinObstruction:    "pin-obstruction",
	ForbiddenTurn:     "forbidden-turn",
	FVP:               "fvp",
	NotThreeColorable: "not-3-colorable",
	VerifierLimit:     "verifier-limit",
	DVIViaMismatch:    "dvi-via-mismatch",
	DVIBadIndex:       "dvi-bad-index",
	DVIInfeasible:     "dvi-infeasible",
	DVICollision:      "dvi-collision",
	DVIBadColor:       "dvi-bad-color",
	DVIColorConflict:  "dvi-color-conflict",
	DVIStatsMismatch:  "dvi-stats-mismatch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Violation is one detected rule breach.
type Violation struct {
	Kind Kind
	// Net is the primary offending net, or -1 when not net-specific.
	Net int32
	// At is a representative location: a metal point for geometry and
	// turn violations, a via site (Layer = via layer) for via-related
	// ones.
	At  geom.Pt3
	Msg string
}

func (v Violation) String() string {
	if v.Net >= 0 {
		return fmt.Sprintf("%s net %d at %v: %s", v.Kind, v.Net, v.At, v.Msg)
	}
	return fmt.Sprintf("%s at %v: %s", v.Kind, v.At, v.Msg)
}

// Report collects the violations of one verification run.
type Report struct {
	Violations []Violation
	// Truncated is true when violations beyond Options.MaxViolations
	// were dropped.
	Truncated bool

	max int
}

// Ok reports whether the solution passed every check.
func (r *Report) Ok() bool { return len(r.Violations) == 0 && !r.Truncated }

// Count returns the number of recorded violations of the given kind.
func (r *Report) Count(k Kind) int {
	n := 0
	for _, v := range r.Violations {
		if v.Kind == k {
			n++
		}
	}
	return n
}

// Has reports whether any violation of the given kind was recorded.
func (r *Report) Has(k Kind) bool { return r.Count(k) > 0 }

// Err returns nil for a clean report, or an error summarizing the
// violations (first few spelled out).
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d violation(s)", len(r.Violations))
	if r.Truncated {
		b.WriteString(" (truncated)")
	}
	for i, v := range r.Violations {
		if i >= 5 {
			fmt.Fprintf(&b, "; ... %d more", len(r.Violations)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) add(k Kind, net int32, at geom.Pt3, format string, args ...interface{}) {
	if len(r.Violations) >= r.max {
		r.Truncated = true
		return
	}
	r.Violations = append(r.Violations, Violation{Kind: k, Net: net, At: at, Msg: fmt.Sprintf(format, args...)})
}

// Options configure a verification run.
type Options struct {
	// SADP is the process mode the solution was routed for.
	SADP coloring.SADPType
	// CheckTPL enables the via-manufacturability checks (FVP-freedom
	// and 3-colorability). Only solutions routed with TPL
	// consideration guarantee these; leave false otherwise.
	CheckTPL bool
	// MaxViolations caps the report (default 100).
	MaxViolations int
	// ColorBudget bounds the exact per-component colorability fallback
	// in backtracking steps (default 2,000,000).
	ColorBudget int
}

func (o Options) withDefaults() Options {
	if o.MaxViolations <= 0 {
		o.MaxViolations = 100
	}
	if o.ColorBudget <= 0 {
		o.ColorBudget = 2_000_000
	}
	return o
}

// Routing verifies a routed (pre-DVI) solution: geometry, SADP turn
// legality and — when opt.CheckTPL — via-layer manufacturability.
// routes is indexed by net ID; nil or empty entries are reported as
// unrouted nets.
func Routing(nl *netlist.Netlist, routes []*grid.Route, opt Options) *Report {
	c := newChecker(nl, routes, opt)
	c.checkGeometry()
	c.checkTurns()
	if c.opt.CheckTPL {
		c.checkViaLayers()
	}
	return c.rep
}

// Solution verifies the full flow output: the routing checks plus the
// DVI assignment when in and sol are non-nil.
func Solution(nl *netlist.Netlist, routes []*grid.Route, in *dvi.Instance, sol *dvi.Solution, opt Options) *Report {
	c := newChecker(nl, routes, opt)
	c.checkGeometry()
	c.checkTurns()
	if c.opt.CheckTPL {
		c.checkViaLayers()
	}
	if in != nil && sol != nil {
		c.checkDVI(in, sol)
	}
	return c.rep
}

// Metrics independently recounts the table metrics of a routed
// solution: total wirelength (distinct planar unit segments per net)
// and total via count (distinct via sites per net). It walks the raw
// path polylines, sharing no code with router.Stats. It knows no grid
// bounds, so it counts distinct entries by sorting, not by indexing.
func Metrics(routes []*grid.Route) (wl, vias int) {
	var segs []segment
	var bases []geom.Pt3
	for _, r := range routes {
		if r == nil || len(r.Paths) == 0 {
			continue
		}
		segs, bases = segs[:0], bases[:0]
		for _, path := range r.Paths {
			for i := 1; i < len(path); i++ {
				a, b := path[i-1], path[i]
				if a.Layer != b.Layer {
					base := a
					if b.Layer < a.Layer {
						base = b
					}
					bases = append(bases, base)
					continue
				}
				if b.X < a.X || b.Y < a.Y {
					a, b = b, a
				}
				segs = append(segs, segment{a, b})
			}
		}
		slices.SortFunc(segs, func(s, t segment) int {
			return cmp.Or(comparePt3(s.a, t.a), comparePt3(s.b, t.b))
		})
		slices.SortFunc(bases, comparePt3)
		wl += len(slices.Compact(segs))
		vias += len(slices.Compact(bases))
	}
	return wl, vias
}

type segment struct{ a, b geom.Pt3 }

func comparePt3(p, q geom.Pt3) int {
	return cmp.Or(cmp.Compare(p.Layer, q.Layer), cmp.Compare(p.Y, q.Y), cmp.Compare(p.X, q.X))
}

// arm bits of the verifier's own arm encoding.
const (
	armE uint8 = 1 << iota
	armW
	armN
	armS
)

// The checker keeps its state in flat arrays over the netlist's grid,
// not in maps keyed by position. Metal point (x, y, layer) is cell
// (layer·H + y)·W + x. A via site uses the same formula with its via
// layer, the layer of the via's lower metal point, so a via base point
// and its via site share one index. Ascending cell order is the
// (layer, y, x) order reports are emitted in: sorting cells sorts
// report sites. A cell index is computed only after the onGrid test,
// since the geometry may come from an untrusted upload.

// netSpan locates one net's geometry in the checker's backing arrays.
type netSpan struct {
	pts0, pts1 int  // pts[pts0:pts1] and arms[pts0:pts1]
	via0, via1 int  // vias[via0:via1]
	valid      bool // geometry walk succeeded (steps legal, on grid)
}

type checker struct {
	nl     *netlist.Netlist
	routes []*grid.Route
	opt    Options
	rep    *Report

	w, h  int
	plane int // w·h: the cells of one layer

	// Walk scratch, reused net by net. stamp[cell] is net+1 of the last
	// net whose walk visited the cell, so an entry left by an earlier
	// net never matches; local[cell] is the cell's union-find index in
	// that net.
	stamp    []int32
	local    []int32
	parent   []int32 // union-find forest over the walked net's indices
	walkCell []int   // index → cell, in first-visit order
	walkArm  []uint8 // index → planar arm mask
	walkVia  []bool  // index → the point is a via's base

	// Every net's distinct points, sorted by cell, in one backing array
	// with per-net offsets in nets: pts packs cell<<32 | union-find
	// index, arms is parallel to pts, and vias lists via base cells.
	pts  []uint64
	arms []uint8
	vias []int
	nets []netSpan

	metal cellLists // metal cell → owning nets
	via   cellLists // via-layer cell → owning nets
	pin   cellLists // layer-0 cell → nets with a pin there
}

func newChecker(nl *netlist.Netlist, routes []*grid.Route, opt Options) *checker {
	opt = opt.withDefaults()
	w, h, layers := max(nl.W, 0), max(nl.H, 0), max(nl.NumLayers, 0)
	c := &checker{
		nl:     nl,
		routes: routes,
		opt:    opt,
		rep:    &Report{max: opt.MaxViolations},
		w:      w,
		h:      h,
		plane:  w * h,
		nets:   make([]netSpan, len(nl.Nets)),
	}
	// Size the point arrays from the path lengths, so the walk never
	// regrows them.
	total, most := 0, 0
	for i := range nl.Nets {
		if i >= len(routes) || routes[i] == nil {
			continue
		}
		n := 0
		for _, path := range routes[i].Paths {
			n += len(path)
		}
		total += n
		most = max(most, n)
	}
	cells := c.plane * layers
	c.stamp = make([]int32, cells)
	c.local = make([]int32, cells)
	c.parent = make([]int32, 0, most)
	c.walkCell = make([]int, 0, most)
	c.walkArm = make([]uint8, 0, most)
	c.walkVia = make([]bool, 0, most)
	c.pts = make([]uint64, 0, total)
	c.arms = make([]uint8, 0, total)
	c.metal = newCellLists(cells)
	c.via = newCellLists(c.plane * max(layers-1, 0))
	c.pin = newCellLists(c.plane)
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			if p.X >= 0 && p.X < w && p.Y >= 0 && p.Y < h {
				c.pin.add(p.Y*w+p.X, int32(n.ID))
			}
		}
	}
	return c
}

func (c *checker) onGrid(p geom.Pt3) bool {
	return p.Layer >= 0 && p.Layer < c.nl.NumLayers &&
		p.X >= 0 && p.X < c.nl.W && p.Y >= 0 && p.Y < c.nl.H
}

// cellOf returns the cell of an on-grid point.
func (c *checker) cellOf(p geom.Pt3) int { return (p.Layer*c.h+p.Y)*c.w + p.X }

// ptOf is the inverse of cellOf.
func (c *checker) ptOf(cell int) geom.Pt3 {
	l := cell / c.plane
	r := cell - l*c.plane
	return geom.XYL(r%c.w, r/c.w, l)
}

// visit returns the walked net's union-find index of cell, adding the
// cell to the net on its first visit.
func (c *checker) visit(cell int, stamp int32) int32 {
	if c.stamp[cell] == stamp {
		return c.local[cell]
	}
	k := int32(len(c.parent))
	c.stamp[cell] = stamp
	c.local[cell] = k
	c.parent = append(c.parent, k)
	c.walkCell = append(c.walkCell, cell)
	c.walkArm = append(c.walkArm, 0)
	c.walkVia = append(c.walkVia, false)
	return k
}

func (c *checker) find(x int32) int32 {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

func (c *checker) union(a, b int32) {
	ra, rb := c.find(a), c.find(b)
	if ra != rb {
		c.parent[ra] = rb
	}
}

// walkNet rebuilds one net's point set, arm masks and via bases from
// its raw path polylines, validating steps as it goes, then appends
// them, sorted by cell, to the backing arrays and records the net as
// an owner of its cells.
func (c *checker) walkNet(id int32, r *grid.Route) {
	stamp := id + 1
	c.parent = c.parent[:0]
	c.walkCell = c.walkCell[:0]
	c.walkArm = c.walkArm[:0]
	c.walkVia = c.walkVia[:0]
	valid := true

	for _, path := range r.Paths {
		for i, p := range path {
			if !c.onGrid(p) {
				c.rep.add(OffGrid, id, p, "path point outside %dx%dx%d grid", c.nl.W, c.nl.H, c.nl.NumLayers)
				valid = false
				continue
			}
			pi := c.visit(c.cellOf(p), stamp)
			if i == 0 {
				continue
			}
			prev := path[i-1]
			if !c.onGrid(prev) {
				continue // already reported
			}
			dx, dy, dz := p.X-prev.X, p.Y-prev.Y, p.Layer-prev.Layer
			if abs(dx)+abs(dy)+abs(dz) != 1 {
				c.rep.add(BadStep, id, p, "step %v -> %v is not a unit grid step", prev, p)
				valid = false
				continue
			}
			qi := c.local[c.cellOf(prev)]
			c.union(qi, pi)
			switch {
			case dz == 1:
				c.walkVia[qi] = true
			case dz == -1:
				c.walkVia[pi] = true
			case dx == 1:
				c.walkArm[qi] |= armE
				c.walkArm[pi] |= armW
			case dx == -1:
				c.walkArm[qi] |= armW
				c.walkArm[pi] |= armE
			case dy == 1:
				c.walkArm[qi] |= armN
				c.walkArm[pi] |= armS
			default: // dy == -1
				c.walkArm[qi] |= armS
				c.walkArm[pi] |= armN
			}
		}
	}

	sp := &c.nets[id]
	sp.valid = valid
	sp.pts0, sp.via0 = len(c.pts), len(c.vias)
	for k, cell := range c.walkCell {
		c.pts = append(c.pts, uint64(cell)<<32|uint64(k))
	}
	keys := c.pts[sp.pts0:]
	slices.Sort(keys)
	for _, key := range keys {
		cell, k := int(key>>32), uint32(key)
		c.arms = append(c.arms, c.walkArm[k])
		c.metal.add(cell, id)
		if c.walkVia[k] {
			c.vias = append(c.vias, cell)
			c.via.add(cell, id)
		}
	}
	sp.pts1, sp.via1 = len(c.pts), len(c.vias)
}

// searchCell returns the index of the first key in keys (sorted
// cell<<32 | index entries) whose cell is at least cell.
func searchCell(keys []uint64, cell int) int {
	target := uint64(cell) << 32
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// armsAt returns net id's planar arm mask at p (0 off the grid or off
// the net).
func (c *checker) armsAt(id int32, p geom.Pt3) uint8 {
	if !c.onGrid(p) {
		return 0
	}
	sp := c.nets[id]
	keys := c.pts[sp.pts0:sp.pts1]
	cell := c.cellOf(p)
	if k := searchCell(keys, cell); k < len(keys) && int(keys[k]>>32) == cell {
		return c.arms[sp.pts0+k]
	}
	return 0
}

// checkGeometry runs the structural checks: path legality, pin
// coverage, connectivity, shorts and pin obstructions.
func (c *checker) checkGeometry() {
	for i, n := range c.nl.Nets {
		id := int32(i)
		var r *grid.Route
		if i < len(c.routes) {
			r = c.routes[i]
		}
		if r == nil || len(r.Paths) == 0 {
			c.rep.add(Unrouted, id, geom.Pt3{}, "net %q has no route", n.Name)
			continue
		}
		c.walkNet(id, r)
		sp := c.nets[i]

		// Pin coverage on layer 0: the walk just stamped the net's
		// cells.
		missing := false
		for _, p := range n.Pins {
			at := geom.XYL(p.X, p.Y, 0)
			if !c.onGrid(at) || c.stamp[c.cellOf(at)] != id+1 {
				c.rep.add(PinMissing, id, at, "pin %v not covered by route", p)
				missing = true
			}
		}
		// Connectivity: every point in one component (no floating
		// metal, pins mutually reachable). Skip when the walk already
		// failed — union-find over broken paths is meaningless.
		if !sp.valid || missing || len(c.parent) == 0 {
			continue
		}
		root := c.find(0)
		for _, key := range c.pts[sp.pts0:sp.pts1] {
			if c.find(int32(uint32(key))) != root {
				p := c.ptOf(int(key >> 32))
				c.rep.add(Disconnected, id, p, "metal at %v not connected to the rest of the net", p)
				break
			}
		}
	}

	// Shorts: metal points and via sites with more than one owner. The
	// scans run in cell order, which is report order.
	for cell, o := range c.metal.one {
		if o >= 0 {
			continue
		}
		if owners := c.metal.many[cell]; len(owners) > 1 {
			p := c.ptOf(cell)
			c.rep.add(MetalShort, owners[0], p, "nets %v share metal point %v", owners, p)
		}
	}
	for cell, o := range c.via.one {
		if o >= 0 {
			continue
		}
		if owners := c.via.many[cell]; len(owners) > 1 {
			v := c.ptOf(cell)
			c.rep.add(ViaShort, owners[0], v, "nets %v share via site %v", owners, v)
		}
	}
	// Pin obstructions: a net's metal on layer 0 over a foreign pin.
	// Layer 0 is the first plane of metal cells (none on a grid
	// without layers).
	for cell, o := range c.metal.one[:min(c.plane, len(c.metal.one))] {
		if o == 0 || c.pin.one[cell] == 0 {
			continue
		}
		pinNets := c.pin.at(cell)
		for _, own := range c.metal.at(cell) {
			if !containsNet(pinNets, own) {
				c.rep.add(PinObstruction, own, c.ptOf(cell), "route covers pin of net(s) %v", pinNets)
			}
		}
	}
}

func containsNet(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// checkTurns validates SADP turn legality: every point whose metal
// shape is exactly two perpendicular arms forms an L that must not be
// forbidden in the chosen mode. Points with one arm, straight wires,
// T- and X-junctions carry no L constraint (the producer's rule).
func (c *checker) checkTurns() {
	for i, sp := range c.nets {
		if !sp.valid {
			continue
		}
		for k := sp.pts0; k < sp.pts1; k++ {
			arms := c.arms[k]
			h := arms & (armE | armW)
			v := arms & (armN | armS)
			if h == 0 || v == 0 {
				continue // no corner
			}
			if popcount4(arms) != 2 {
				continue // T or X junction: unconstrained
			}
			p := c.ptOf(int(c.pts[k] >> 32))
			if forbiddenL(c.opt.SADP, p.Pt2(), h, v) {
				c.rep.add(ForbiddenTurn, int32(i), p, "L-turn (%s) forbidden for %v at parity (%d,%d)",
					armString(arms), c.opt.SADP, p.X&1, p.Y&1)
			}
		}
	}
}

func popcount4(m uint8) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

func armString(m uint8) string {
	var parts []string
	if m&armE != 0 {
		parts = append(parts, "E")
	}
	if m&armW != 0 {
		parts = append(parts, "W")
	}
	if m&armN != 0 {
		parts = append(parts, "N")
	}
	if m&armS != 0 {
		parts = append(parts, "S")
	}
	return strings.Join(parts, "|")
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
