package verify_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/verify"
)

// FuzzVerify decodes bytes into a small verification problem — a
// netlist of up to 8×8×3 with up to six nets, routes whose points may
// leave the grid or take non-unit steps, and a DVI instance and
// solution with arbitrary indices, colors, array lengths and counters —
// and asserts the flat checker returns exactly the reference's Report,
// and Metrics the reference's recount.
//
//	go test -run=NONE -fuzz=FuzzVerify -fuzztime=10s ./internal/verify
func FuzzVerify(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCase(data)
		want := verify.RefSolution(c.nl, c.routes, c.in, c.sol, c.opt)
		got := verify.Solution(c.nl, c.routes, c.in, c.sol, c.opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("report differs from the reference:\n%s", reportDiff(got, want))
		}
		want = verify.RefRouting(c.nl, c.routes, c.opt)
		if got := verify.Routing(c.nl, c.routes, c.opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("routing report differs from the reference:\n%s", reportDiff(got, want))
		}
		wl, vias := verify.Metrics(c.routes)
		if rwl, rvias := verify.RefMetrics(c.routes); wl != rwl || vias != rvias {
			t.Fatalf("Metrics = %d/%d, reference %d/%d", wl, vias, rwl, rvias)
		}
	})
}

// TestFuzzSeedsCoverEveryKind keeps the seed corpus honest: between
// them the seeds make the reference report every violation kind.
func TestFuzzSeedsCoverEveryKind(t *testing.T) {
	seen := map[verify.Kind]bool{}
	for _, s := range fuzzSeeds() {
		c := decodeCase(s)
		for _, v := range verify.RefSolution(c.nl, c.routes, c.in, c.sol, c.opt).Violations {
			seen[v.Kind] = true
		}
	}
	for k := verify.BadStep; k <= verify.DVIStatsMismatch; k++ {
		if !seen[k] {
			t.Errorf("no seed yields a %v violation", k)
		}
	}
}

type fuzzCase struct {
	nl     *netlist.Netlist
	routes []*grid.Route
	in     *dvi.Instance
	sol    *dvi.Solution
	opt    verify.Options
}

// byteSrc hands out decisions; an exhausted source reads as zeros.
type byteSrc struct{ b []byte }

func (s *byteSrc) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *byteSrc) intn(n int) int { return int(s.next()) % n }

// coord decodes a coordinate on an axis of n: bytes below 240 land on
// the grid, the rest just off either edge or far away.
func (s *byteSrc) coord(n int) int {
	switch b := int(s.next()); {
	case b < 240:
		return b % n
	case b < 244:
		return -1 - (b - 240)
	case b < 248:
		return n + (b - 244)
	case b < 252:
		return -1000 * (b - 247)
	default:
		return 1<<40 + b
	}
}

// Step codes of a decoded path.
const (
	stepE = iota
	stepW
	stepN
	stepS
	stepUp
	stepDown
	stepJump   // to a freshly decoded point
	stepRepeat // the same point again
	stepDouble // two tracks east
	numSteps
)

func decodeCase(data []byte) fuzzCase {
	s := &byteSrc{data}
	w, h, layers := 1+s.intn(8), 1+s.intn(8), 2+s.intn(2)
	nl := &netlist.Netlist{Name: "fuzz", W: w, H: h, NumLayers: layers}
	nn := 1 + s.intn(6)
	for id := 0; id < nn; id++ {
		n := &netlist.Net{ID: id, Name: fmt.Sprintf("n%d", id)}
		for k := s.intn(4); k > 0; k-- {
			n.Pins = append(n.Pins, geom.XY(s.coord(w), s.coord(h)))
		}
		nl.Nets = append(nl.Nets, n)
	}
	point := func() geom.Pt3 { return geom.XYL(s.coord(w), s.coord(h), s.coord(layers)) }
	routes := make([]*grid.Route, s.intn(nn+2))
	for id := range routes {
		switch s.intn(6) {
		case 0:
			continue
		case 1:
			routes[id] = &grid.Route{Net: int32(id)}
			continue
		}
		r := &grid.Route{Net: int32(id)}
		for k := 1 + s.intn(3); k > 0; k-- {
			p := point()
			path := []geom.Pt3{p}
			for m := s.intn(32); m > 0; m-- {
				switch s.intn(numSteps) {
				case stepE:
					p.X++
				case stepW:
					p.X--
				case stepN:
					p.Y++
				case stepS:
					p.Y--
				case stepUp:
					p.Layer++
				case stepDown:
					p.Layer--
				case stepJump:
					p = point()
				case stepDouble:
					p.X += 2
				}
				path = append(path, p)
			}
			r.Paths = append(r.Paths, path)
		}
		routes[id] = r
	}
	opt := verify.Options{
		SADP:          [2]coloring.SADPType{coloring.SIM, coloring.SID}[s.intn(2)],
		CheckTPL:      s.intn(2) == 1,
		MaxViolations: [3]int{0, 2, math.MaxInt}[s.intn(3)],
		ColorBudget:   [3]int{0, 1, 3}[s.intn(3)],
	}
	c := fuzzCase{nl: nl, routes: routes, opt: opt}
	if s.intn(4) == 0 {
		return c
	}

	// The instance starts from the routes' via bases...
	in := &dvi.Instance{}
	for id, r := range routes {
		if r == nil {
			continue
		}
		seen := map[geom.Pt3]bool{}
		for _, path := range r.Paths {
			for i := 1; i < len(path); i++ {
				a, b := path[i-1], path[i]
				if a.X != b.X || a.Y != b.Y || abs(a.Layer-b.Layer) != 1 {
					continue
				}
				base := geom.XYL(a.X, a.Y, min(a.Layer, b.Layer))
				if !seen[base] {
					seen[base] = true
					in.Vias = append(in.Vias, dvi.Via{Net: int32(id), Base: base})
				}
			}
		}
	}
	// ...then duplicates, forgeries and omissions.
	for k := s.intn(4); k > 0; k-- {
		kind, at := s.intn(3), s.intn(max(len(in.Vias), 1))
		switch {
		case kind == 0 && len(in.Vias) > 0:
			in.Vias = append(in.Vias, in.Vias[at])
		case kind == 1:
			in.Vias = append(in.Vias, dvi.Via{Net: int32(s.intn(nn+2) - 1), Base: point()})
		case kind == 2 && len(in.Vias) > 0:
			in.Vias = append(in.Vias[:at:at], in.Vias[at+1:]...)
		}
	}
	for _, v := range in.Vias {
		var feas []geom.Pt
		for k := s.intn(5); k > 0; k-- {
			if o := s.intn(5); o > 0 {
				feas = append(feas, v.Pos().Add(dvi.DVICOffsets[o-1].X, dvi.DVICOffsets[o-1].Y))
			} else {
				feas = append(feas, geom.XY(s.coord(w), s.coord(h)))
			}
		}
		in.Feas = append(in.Feas, feas)
	}
	if s.intn(8) == 0 {
		in.Feas = in.Feas[:len(in.Feas)/2]
	}
	n := len(in.Vias)
	sol := &dvi.Solution{Inserted: make([]int, n), Colors: make([]int8, n), RedColors: make([]int8, n)}
	for i := 0; i < n; i++ {
		sol.Inserted[i] = s.intn(7) - 2
		sol.Colors[i] = int8(s.intn(6) - 2)
		sol.RedColors[i] = int8(s.intn(6) - 2)
		if i < len(in.Feas) && sol.Inserted[i] >= -1 && sol.Inserted[i] < len(in.Feas[i]) {
			if sol.Inserted[i] >= 0 {
				sol.InsertedCount++
			} else {
				sol.DeadVias++
			}
			if sol.Colors[i] == -1 {
				sol.Uncolorable++
			}
		}
	}
	switch s.intn(16) {
	case 0:
		sol.Inserted = sol.Inserted[:n/2]
	case 1:
		sol.Colors = sol.Colors[:n/2]
	case 2:
		sol.RedColors = sol.RedColors[:n/2]
	}
	sol.InsertedCount += s.intn(3) - 1
	sol.DeadVias += s.intn(3) - 1
	sol.Uncolorable += s.intn(3) - 1
	c.in, c.sol = in, sol
	return c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// seedBytes writes decisions in decodeCase's order. Both methods
// return a new slice, so one prefix can start several seeds.
type seedBytes []byte

func (b seedBytes) v(vals ...int) seedBytes {
	b = b[:len(b):len(b)]
	for _, x := range vals {
		b = append(b, byte(x))
	}
	return b
}

// then appends more encoded decisions.
func (b seedBytes) then(more ...seedBytes) seedBytes {
	b = b[:len(b):len(b)]
	for _, m := range more {
		b = append(b, m...)
	}
	return b
}

// Coordinate bytes off the grid: -1, n (one past the far edge) and a
// far-away 2^40 + 252.
const (
	offLow  = 240
	offHigh = 244
	offFar  = 252
)

// Candidate encodings of dviPart: offset k of dvi.DVICOffsets, or an
// arbitrary in-plane point.
func cOff(k int) seedBytes   { return seedBytes{}.v(k + 1) }
func cAt(x, y int) seedBytes { return seedBytes{}.v(0, x, y) }

// Forgery encodings of dviPart: repeat via k, add a via of net (−1 and
// past the last net allowed) at (x, y, layer), or drop via k.
func fRepeat(k int) seedBytes { return seedBytes{}.v(0, k) }
func fForge(net, x, y, l int) seedBytes {
	return seedBytes{}.v(1, 0, net+1, x, y, l)
}
func fDrop(k int) seedBytes { return seedBytes{}.v(2, k) }

// dviPart encodes a DVI section: the forgeries, each via's candidates,
// each via's (inserted index, color, redundant color), an array to
// truncate (0 Inserted, 1 Colors, 2 RedColors, 3 none) and the
// perturbation of the three counters.
func dviPart(forge []seedBytes, cands [][]seedBytes, sol [][3]int, trunc int, perturb [3]int) seedBytes {
	b := seedBytes{}.v(1, len(forge)).then(forge...)
	for _, cs := range cands {
		b = b.v(len(cs)).then(cs...)
	}
	b = b.v(1) // no Feas truncation
	for _, x := range sol {
		b = b.v(x[0]+2, x[1]+2, x[2]+2)
	}
	return b.v(trunc, perturb[0]+1, perturb[1]+1, perturb[2]+1)
}

// fuzzSeeds is the corpus: one input per shape of the mutation tests,
// each encoded decision by decision.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(b seedBytes) { seeds = append(seeds, b) }
	// Grid 8×8×2; net 0 pins (0,0) and (2,2), net 1 pins (5,5) and
	// (7,5). Net 0 runs east on m0, up, north on m1 and down again
	// (vias at (2,0) and (2,2)); net 1 runs east on m0.
	header := seedBytes{}.v(7, 7, 0, 1, 2, 0, 0, 2, 2, 2, 5, 5, 7, 5)
	net0 := seedBytes{}.v(2, 0, 0, 0, 0, 6, stepE, stepE, stepUp, stepN, stepN, stepDown)
	net1 := seedBytes{}.v(2, 0, 5, 5, 0, 2, stepE, stepE)
	opts := seedBytes{}.v(0, 1, 0, 0) // SIM, TPL checks, default cap and budget
	base := header.then(seedBytes{}.v(2), net0, net1, opts)
	// Via 0 takes its east candidate colored 1 over its own color 0;
	// via 1 stays single with color 1.
	add(base.then(dviPart(nil, [][]seedBytes{{cOff(0), cOff(1)}, {cOff(2)}}, [][3]int{{0, 0, 1}, {-1, 1, -1}}, 3, [3]int{})))
	add(header.then(seedBytes{}.v(2), net0, net1).v(1, 1, 2, 0, 0)) // SID, full report, no DVI

	// Unrouted net 1; a route list shorter than the nets.
	add(header.then(seedBytes{}.v(1), net0, opts).v(0))
	add(header.then(seedBytes{}.v(2, 0), net1, opts).v(0))
	// Disconnected: net 1 as two separate paths; pin missing: net 1
	// stops short.
	add(header.then(seedBytes{}.v(2), net0, seedBytes{}.v(2, 1, 5, 5, 0, 1, stepE, 7, 5, 0, 0), opts).v(0))
	add(header.then(seedBytes{}.v(2), net0, seedBytes{}.v(2, 0, 5, 5, 0, 1, stepE), opts).v(0))
	// Bad steps, a repeated point, a jump and points off the grid.
	add(header.then(seedBytes{}.v(2), net0, seedBytes{}.v(2, 1, 5, 5, 0, 4, stepDouble, stepRepeat, stepJump, offLow, 3, 0, stepE,
		offHigh, offFar, 1, 2, stepDown, stepDown)).v(1, 0, 2, 0, 0))
	// Short: net 1 runs west onto net 0's metal at (2,2,0), covering
	// net 0's pin there.
	add(header.then(seedBytes{}.v(2), net0, seedBytes{}.v(2, 1, 5, 5, 0, 2, stepE, stepE, 4, 2, 0, 2, stepW, stepW), opts).v(0))
	// Net 0 lists its pin (2,2) twice; net 1 obstructs it.
	add(seedBytes{}.v(7, 7, 0, 1, 3, 0, 0, 2, 2, 2, 2, 2, 5, 2, 3, 2).then(seedBytes{}.v(2), net0,
		seedBytes{}.v(2, 0, 5, 2, 0, 3, stepW, stepW, stepW), opts).v(0))
	// Via short: both nets drop a via at (4,4).
	add(seedBytes{}.v(7, 7, 0, 1, 1, 4, 4, 1, 4, 4, 2,
		2, 0, 4, 4, 0, 2, stepUp, stepDown,
		2, 0, 4, 4, 0, 1, stepUp).then(opts).v(0))
	// Forbidden turns: a W+N corner at (2,2) is forbidden in both
	// modes; a staircase of corners for many more.
	add(seedBytes{}.v(7, 7, 0, 0, 2, 1, 2, 2, 3, 1, 2, 0, 1, 2, 0, 2, stepE, stepN).v(0, 0, 0, 0, 0))
	add(seedBytes{}.v(7, 7, 1, 0, 0, 1, 2, 0, 0, 0, 0, 12,
		stepE, stepN, stepE, stepN, stepE, stepN, stepE, stepN, stepE, stepN, stepE, stepN).v(1, 0, 2, 0, 0))
	// FVP: a 2×2 via block on via layer 0 (K4, not 3-colorable); with
	// a budget of one step the exact colorer gives up instead.
	block := seedBytes{}.v(7, 7, 0, 0, 2, 0, 0, 4, 0, 1, 2, 0, 0, 0, 0, 17,
		stepE, stepUp, stepDown, stepE, stepUp, stepDown, stepN, stepUp, stepDown,
		stepW, stepUp, stepDown, stepS, stepE, stepE, stepE, stepE)
	add(block.v(0, 1, 2, 0, 0))
	add(block.v(0, 1, 2, 1, 0))
	// DVI over the block: every via inserts east with one color, so
	// insertions land on the block's own vias and conflict in color.
	add(block.v(0, 1, 2, 0).then(dviPart(nil,
		[][]seedBytes{{cOff(0)}, {cOff(0)}, {cOff(0)}, {cOff(0)}},
		[][3]int{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}}, 3, [3]int{})))
	// DVI forgeries: a repeated via, a via of an unknown net off the
	// grid, one of net −1, one of net 0 on the west edge whose west
	// candidate is off the grid; insertions colliding, out of range
	// (index −2 and 5), onto other nets' metal, and bad colors.
	add(base.then(dviPart(
		[]seedBytes{fRepeat(0), fForge(2, offLow, 0, 0), fForge(-1, 3, 3, 0)},
		[][]seedBytes{{cOff(0)}, {cOff(2)}, {cOff(0)}, {cOff(0)}, {cOff(1), cAt(6, 6)}},
		[][3]int{{0, 0, 1}, {0, 3, -2}, {0, 2, 0}, {0, 0, 1}, {-2, 0, 0}}, 3, [3]int{})))
	add(base.then(dviPart(
		[]seedBytes{fForge(0, 0, 3, 0), fForge(1, 5, 5, 0), fDrop(1)},
		[][]seedBytes{{cAt(offLow, 0)}, {cOff(1)}, {cOff(0), cOff(2)}},
		[][3]int{{0, -1, 0}, {0, 1, 1}, {1, 2, 1}}, 3, [3]int{1, 0, -1})))
	// Truncated arrays and wrong counters.
	add(base.then(dviPart(nil, [][]seedBytes{{cOff(0)}, {}}, [][3]int{{0, 0, 1}, {-1, 1, 0}}, 0, [3]int{})))
	add(base.then(dviPart(nil, [][]seedBytes{{cOff(0)}, {}}, [][3]int{{0, 0, 1}, {-1, 1, 0}}, 3, [3]int{1, 1, 1})))
	return seeds
}
