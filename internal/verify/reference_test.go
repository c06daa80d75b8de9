package verify

import (
	"sort"

	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
)

// The map-based checker the flat one replaced, kept verbatim (names
// prefixed ref) as the reference of the differential tests and of
// FuzzVerify: both must return deeply equal Reports — the same
// violations, in the same order, with the same text. It shares the
// rule formulas (forbiddenL, stubExtensionOK), the conflict offsets and
// the window-colorability table with the production checker; those
// decide what is legal, while the code below only decides where to
// look, which is what the flat layout changed.

func refRouting(nl *netlist.Netlist, routes []*grid.Route, opt Options) *Report {
	c := newRefChecker(nl, routes, opt)
	c.checkGeometry()
	c.checkTurns()
	if c.opt.CheckTPL {
		c.checkViaLayers()
	}
	return c.rep
}

func refSolution(nl *netlist.Netlist, routes []*grid.Route, in *dvi.Instance, sol *dvi.Solution, opt Options) *Report {
	c := newRefChecker(nl, routes, opt)
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

// refMetrics is the map-based recount Metrics replaced.
func refMetrics(routes []*grid.Route) (wl, vias int) {
	type seg struct{ a, b geom.Pt3 }
	for _, r := range routes {
		if r == nil || len(r.Paths) == 0 {
			continue
		}
		segs := map[seg]bool{}
		viaSet := map[geom.Pt3]bool{}
		for _, path := range r.Paths {
			for i := 1; i < len(path); i++ {
				a, b := path[i-1], path[i]
				if a.Layer != b.Layer {
					base := a
					if b.Layer < a.Layer {
						base = b
					}
					viaSet[base] = true
					continue
				}
				if b.X < a.X || b.Y < a.Y {
					a, b = b, a
				}
				segs[seg{a, b}] = true
			}
		}
		wl += len(segs)
		vias += len(viaSet)
	}
	return wl, vias
}

// refNetData is the verifier's reconstruction of one net's geometry.
type refNetData struct {
	pts  map[geom.Pt3]int   // point → dense index (union-find)
	arms map[geom.Pt3]uint8 // planar arm mask at each point
	vias map[geom.Pt3]bool  // via base points (lower layer)
	// parent is the union-find forest over pts' indices.
	parent []int
	valid  bool // geometry walk succeeded (steps legal, on grid)
}

func (nd *refNetData) find(x int) int {
	for nd.parent[x] != x {
		nd.parent[x] = nd.parent[nd.parent[x]]
		x = nd.parent[x]
	}
	return x
}

func (nd *refNetData) union(a, b int) {
	ra, rb := nd.find(a), nd.find(b)
	if ra != rb {
		nd.parent[ra] = rb
	}
}

type refChecker struct {
	nl     *netlist.Netlist
	routes []*grid.Route
	opt    Options
	rep    *Report

	nets []refNetData
	// metalOwner maps each occupied metal point to the distinct nets
	// covering it (shorts keep all owners for reporting).
	metalOwner map[geom.Pt3][]int32
	// viaOwner maps each occupied via site (Layer = via layer) to its
	// owning nets.
	viaOwner map[geom.Pt3][]int32
	// pinOwner maps layer-0 pin points to the nets pinning there.
	pinOwner map[geom.Pt][]int32
}

func newRefChecker(nl *netlist.Netlist, routes []*grid.Route, opt Options) *refChecker {
	opt = opt.withDefaults()
	c := &refChecker{
		nl:         nl,
		routes:     routes,
		opt:        opt,
		rep:        &Report{max: opt.MaxViolations},
		nets:       make([]refNetData, len(nl.Nets)),
		metalOwner: map[geom.Pt3][]int32{},
		viaOwner:   map[geom.Pt3][]int32{},
		pinOwner:   map[geom.Pt][]int32{},
	}
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			c.pinOwner[p] = refAppendDistinct(c.pinOwner[p], int32(n.ID))
		}
	}
	return c
}

func refAppendDistinct(s []int32, v int32) []int32 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func (c *refChecker) onGrid(p geom.Pt3) bool {
	return p.Layer >= 0 && p.Layer < c.nl.NumLayers &&
		p.X >= 0 && p.X < c.nl.W && p.Y >= 0 && p.Y < c.nl.H
}

// walkNet rebuilds one net's point set, arm masks and via set from its
// raw path polylines, validating steps as it goes.
func (c *refChecker) walkNet(id int32, r *grid.Route) {
	nd := &c.nets[id]
	nd.pts = map[geom.Pt3]int{}
	nd.arms = map[geom.Pt3]uint8{}
	nd.vias = map[geom.Pt3]bool{}
	nd.valid = true

	idxOf := func(p geom.Pt3) int {
		if i, ok := nd.pts[p]; ok {
			return i
		}
		i := len(nd.parent)
		nd.pts[p] = i
		nd.parent = append(nd.parent, i)
		return i
	}

	for _, path := range r.Paths {
		for i, p := range path {
			if !c.onGrid(p) {
				c.rep.add(OffGrid, id, p, "path point outside %dx%dx%d grid", c.nl.W, c.nl.H, c.nl.NumLayers)
				nd.valid = false
				continue
			}
			pi := idxOf(p)
			if i == 0 {
				continue
			}
			prev := path[i-1]
			if !c.onGrid(prev) {
				continue // already reported
			}
			dx, dy, dz := p.X-prev.X, p.Y-prev.Y, p.Layer-prev.Layer
			adx, ady, adz := abs(dx), abs(dy), abs(dz)
			if adx+ady+adz != 1 {
				c.rep.add(BadStep, id, p, "step %v -> %v is not a unit grid step", prev, p)
				nd.valid = false
				continue
			}
			nd.union(nd.pts[prev], pi)
			switch {
			case adz == 1:
				base := prev
				if dz < 0 {
					base = p
				}
				nd.vias[base] = true
			case dx == 1:
				nd.arms[prev] |= armE
				nd.arms[p] |= armW
			case dx == -1:
				nd.arms[prev] |= armW
				nd.arms[p] |= armE
			case dy == 1:
				nd.arms[prev] |= armN
				nd.arms[p] |= armS
			default: // dy == -1
				nd.arms[prev] |= armS
				nd.arms[p] |= armN
			}
		}
	}

	for p := range nd.pts {
		c.metalOwner[p] = refAppendDistinct(c.metalOwner[p], id)
	}
	for v := range nd.vias {
		c.viaOwner[v] = refAppendDistinct(c.viaOwner[v], id)
	}
}

// checkGeometry runs the structural checks: path legality, pin
// coverage, connectivity, shorts and pin obstructions.
func (c *refChecker) checkGeometry() {
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
		nd := &c.nets[i]

		// Pin coverage on layer 0.
		missing := false
		for _, p := range n.Pins {
			if _, ok := nd.pts[geom.XYL(p.X, p.Y, 0)]; !ok {
				c.rep.add(PinMissing, id, geom.XYL(p.X, p.Y, 0), "pin %v not covered by route", p)
				missing = true
			}
		}
		// Connectivity: every point in one component (no floating
		// metal, pins mutually reachable). Skip when the walk already
		// failed — union-find over broken paths is meaningless.
		if !nd.valid || missing || len(nd.parent) == 0 {
			continue
		}
		root := nd.find(0)
		for _, p := range refSortedPt3Keys(nd.pts) {
			if nd.find(nd.pts[p]) != root {
				c.rep.add(Disconnected, id, p, "metal at %v not connected to the rest of the net", p)
				break
			}
		}
	}

	// Shorts: metal points and via sites with more than one owner.
	metalPts := refSortedPt3Keys(c.metalOwner)
	for _, p := range metalPts {
		if owners := c.metalOwner[p]; len(owners) > 1 {
			c.rep.add(MetalShort, owners[0], p, "nets %v share metal point %v", owners, p)
		}
	}
	for _, v := range refSortedPt3Keys(c.viaOwner) {
		if owners := c.viaOwner[v]; len(owners) > 1 {
			c.rep.add(ViaShort, owners[0], v, "nets %v share via site %v", owners, v)
		}
	}
	// Pin obstructions: a net's metal on layer 0 over a foreign pin.
	for _, p := range metalPts {
		owners := c.metalOwner[p]
		if p.Layer != 0 {
			continue
		}
		pinNets, ok := c.pinOwner[p.Pt2()]
		if !ok {
			continue
		}
		for _, o := range owners {
			if !containsNet(pinNets, o) {
				c.rep.add(PinObstruction, o, p, "route covers pin of net(s) %v", pinNets)
			}
		}
	}
}

// refSortedPt3Keys returns m's keys in (layer, row-major) order.
func refSortedPt3Keys[V any](m map[geom.Pt3]V) []geom.Pt3 {
	keys := make([]geom.Pt3, 0, len(m))
	for k := range m { //sadplint:ordered keys are sorted on the next line
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	return keys
}

// refSortedPtKeys is refSortedPt3Keys for single-layer keys.
func refSortedPtKeys[V any](m map[geom.Pt]V) []geom.Pt {
	keys := make([]geom.Pt, 0, len(m))
	for k := range m { //sadplint:ordered keys are sorted on the next line
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Y != keys[j].Y {
			return keys[i].Y < keys[j].Y
		}
		return keys[i].X < keys[j].X
	})
	return keys
}

// checkTurns validates SADP turn legality.
func (c *refChecker) checkTurns() {
	for i := range c.nets {
		nd := &c.nets[i]
		if !nd.valid {
			continue
		}
		for _, p := range refSortedPt3Keys(nd.arms) {
			arms := nd.arms[p]
			h := arms & (armE | armW)
			v := arms & (armN | armS)
			if h == 0 || v == 0 {
				continue // no corner
			}
			if popcount4(arms) != 2 {
				continue // T or X junction: unconstrained
			}
			if forbiddenL(c.opt.SADP, p.Pt2(), h, v) {
				c.rep.add(ForbiddenTurn, int32(i), p, "L-turn (%s) forbidden for %v at parity (%d,%d)",
					armString(arms), c.opt.SADP, p.X&1, p.Y&1)
			}
		}
	}
}

// viaLayerSites reconstructs the occupied via sites of each via layer
// from the verifier's own via ownership map, in row-major order.
func (c *refChecker) viaLayerSites() [][]geom.Pt {
	layers := make([][]geom.Pt, c.nl.NumLayers-1)
	//sadplint:ordered per-layer slices are sorted row-major just below
	for v := range c.viaOwner {
		if v.Layer >= 0 && v.Layer < len(layers) {
			layers[v.Layer] = append(layers[v.Layer], v.Pt2())
		}
	}
	for _, sites := range layers {
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].Y != sites[j].Y {
				return sites[i].Y < sites[j].Y
			}
			return sites[i].X < sites[j].X
		})
	}
	return layers
}

func (c *refChecker) checkViaLayers() {
	for vl, sites := range c.viaLayerSites() {
		c.checkFVPs(vl, sites)
		c.checkLayerColorable(vl, sites)
	}
}

func (c *refChecker) checkFVPs(vl int, sites []geom.Pt) {
	occupied := make(map[geom.Pt]bool, len(sites))
	for _, s := range sites {
		occupied[s] = true
	}
	seen := map[geom.Pt]bool{}
	for _, s := range sites {
		for dy := -2; dy <= 0; dy++ {
			for dx := -2; dx <= 0; dx++ {
				o := geom.XY(s.X+dx, s.Y+dy)
				if seen[o] {
					continue
				}
				seen[o] = true
				var mask uint16
				n := 0
				for wy := 0; wy < 3; wy++ {
					for wx := 0; wx < 3; wx++ {
						if occupied[geom.XY(o.X+wx, o.Y+wy)] {
							mask |= 1 << (wx + 3*wy)
							n++
						}
					}
				}
				if n >= 4 && !patternColorable3(mask) {
					c.rep.add(FVP, -1, geom.XYL(o.X, o.Y, vl),
						"3x3 window with %d vias is a forbidden via pattern (via layer %d)", n, vl)
				}
			}
		}
	}
}

func (c *refChecker) checkLayerColorable(vl int, sites []geom.Pt) {
	n := len(sites)
	if n == 0 {
		return
	}
	index := make(map[geom.Pt]int, n)
	for i, s := range sites {
		index[s] = i
	}
	adj := make([][]int, n)
	for i, s := range sites {
		for _, off := range conflictOffsets {
			if j, ok := index[s.Add(off.X, off.Y)]; ok {
				adj[i] = append(adj[i], j)
			}
		}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(adj[order[a]]) > len(adj[order[b]])
	})
	colors := make([]int, n) // 0 = unassigned, 1..3 = colors
	var failed []int
	for _, v := range order {
		var used [4]bool
		for _, u := range adj[v] {
			used[colors[u]] = true
		}
		for col := 1; col <= 3; col++ {
			if !used[col] {
				colors[v] = col
				break
			}
		}
		if colors[v] == 0 {
			failed = append(failed, v)
		}
	}
	if len(failed) == 0 {
		return
	}

	comp := refComponents(adj)
	reported := map[int]bool{}
	for _, v := range failed {
		cid := comp.id[v]
		if reported[cid] {
			continue
		}
		reported[cid] = true
		ok, exact := refColorableExact(adj, comp.members[cid], 3, c.opt.ColorBudget)
		at := geom.XYL(sites[v].X, sites[v].Y, vl)
		switch {
		case !exact:
			c.rep.add(VerifierLimit, -1, at,
				"colorability of %d-via component undecided within budget (via layer %d)",
				len(comp.members[cid]), vl)
		case !ok:
			c.rep.add(NotThreeColorable, -1, at,
				"decomposition graph component of %d vias is not 3-colorable (via layer %d)",
				len(comp.members[cid]), vl)
		}
	}
}

type refComponentSet struct {
	id      []int
	members [][]int
}

func refComponents(adj [][]int) refComponentSet {
	n := len(adj)
	cs := refComponentSet{id: make([]int, n)}
	for i := range cs.id {
		cs.id[i] = -1
	}
	var stack []int
	for s := 0; s < n; s++ {
		if cs.id[s] >= 0 {
			continue
		}
		cid := len(cs.members)
		var mem []int
		stack = append(stack[:0], s)
		cs.id[s] = cid
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mem = append(mem, v)
			for _, u := range adj[v] {
				if cs.id[u] < 0 {
					cs.id[u] = cid
					stack = append(stack, u)
				}
			}
		}
		cs.members = append(cs.members, mem)
	}
	return cs
}

func refColorableExact(adj [][]int, comp []int, k, budget int) (ok, exact bool) {
	colors := map[int]int{}
	steps := 0
	var solve func(i int) (bool, bool)
	solve = func(i int) (bool, bool) {
		if i == len(comp) {
			return true, true
		}
		steps++
		if steps > budget {
			return false, false
		}
		v := comp[i]
		for col := 1; col <= k; col++ {
			good := true
			for _, u := range adj[v] {
				if colors[u] == col {
					good = false
					break
				}
			}
			if good {
				colors[v] = col
				done, ex := solve(i + 1)
				if done {
					return true, true
				}
				delete(colors, v)
				if !ex {
					return false, false
				}
			}
		}
		return false, true
	}
	return solve(0)
}

func (c *refChecker) checkDVI(in *dvi.Instance, sol *dvi.Solution) {
	n := len(in.Vias)
	if len(sol.Inserted) != n || len(sol.Colors) != n || len(sol.RedColors) != n || len(in.Feas) != n {
		c.rep.add(DVIStatsMismatch, -1, geom.Pt3{},
			"solution arrays sized %d/%d/%d (feas %d) for %d vias",
			len(sol.Inserted), len(sol.Colors), len(sol.RedColors), len(in.Feas), n)
		return
	}

	c.checkInstanceVias(in)

	type site struct {
		vl int
		p  geom.Pt
	}
	occupied := map[site][]int{}
	for i, v := range in.Vias {
		occupied[site{v.Layer(), v.Pos()}] = append(occupied[site{v.Layer(), v.Pos()}], i)
	}

	type colored struct {
		vl    int
		p     geom.Pt
		color int8
	}
	var all []colored
	inserted, dead, unc := 0, 0, 0

	for i := 0; i < n; i++ {
		v := in.Vias[i]
		j := sol.Inserted[i]
		if j < -1 || j >= len(in.Feas[i]) {
			c.rep.add(DVIBadIndex, v.Net, v.Base, "insertion index %d out of range of %d candidates", j, len(in.Feas[i]))
			continue
		}
		col := sol.Colors[i]
		switch {
		case col == -1:
			unc++
		case col < 0 || col >= 3:
			c.rep.add(DVIBadColor, v.Net, v.Base, "via color %d out of range", col)
		default:
			all = append(all, colored{v.Layer(), v.Pos(), col})
		}
		if j < 0 {
			dead++
			continue
		}
		inserted++
		cand := in.Feas[i][j]
		if v.Pos().ManhattanDist(cand) != 1 {
			c.rep.add(DVIInfeasible, v.Net, v.Base, "candidate %v is not adjacent to the via", cand)
			continue
		}
		st := site{v.Layer(), cand}
		if len(occupied[st]) > 0 {
			c.rep.add(DVICollision, v.Net, geom.XYL(cand.X, cand.Y, v.Layer()),
				"redundant via collides with via(s) %v at %v", occupied[st], cand)
		}
		occupied[st] = append(occupied[st], i)
		c.checkInsertionFeasible(v, cand)
		rc := sol.RedColors[i]
		if rc < 0 || rc >= 3 {
			c.rep.add(DVIBadColor, v.Net, geom.XYL(cand.X, cand.Y, v.Layer()),
				"inserted redundant via has color %d (want 0..2)", rc)
		} else {
			all = append(all, colored{v.Layer(), cand, rc})
		}
	}

	byLayer := map[int]map[geom.Pt][]int8{}
	for _, cc := range all {
		if byLayer[cc.vl] == nil {
			byLayer[cc.vl] = map[geom.Pt][]int8{}
		}
		byLayer[cc.vl][cc.p] = append(byLayer[cc.vl][cc.p], cc.color)
	}
	vls := make([]int, 0, len(byLayer))
	for vl := range byLayer { //sadplint:ordered keys are sorted on the next line
		vls = append(vls, vl)
	}
	sort.Ints(vls)
	for _, vl := range vls {
		pos := byLayer[vl]
		for _, p := range refSortedPtKeys(pos) {
			cols := pos[p]
			for _, col := range cols {
				for _, off := range conflictOffsets {
					q := p.Add(off.X, off.Y)
					if q.Y < p.Y || (q.Y == p.Y && q.X < p.X) {
						continue
					}
					for _, oc := range byLayer[vl][q] {
						if oc == col {
							c.rep.add(DVIColorConflict, -1, geom.XYL(p.X, p.Y, vl),
								"vias at %v and %v share color %d within pitch (via layer %d)", p, q, col, vl)
						}
					}
				}
			}
		}
	}

	if sol.InsertedCount != inserted || sol.DeadVias != dead || sol.Uncolorable != unc {
		c.rep.add(DVIStatsMismatch, -1, geom.Pt3{},
			"reported inserted/dead/uncolorable %d/%d/%d, recounted %d/%d/%d",
			sol.InsertedCount, sol.DeadVias, sol.Uncolorable, inserted, dead, unc)
	}
}

func (c *refChecker) checkInstanceVias(in *dvi.Instance) {
	mine := 0
	for i := range c.nets {
		mine += len(c.nets[i].vias)
	}
	if mine != len(in.Vias) {
		c.rep.add(DVIViaMismatch, -1, geom.Pt3{},
			"instance lists %d vias, routed solution has %d", len(in.Vias), mine)
	}
	seen := map[dvi.Via]bool{}
	for _, v := range in.Vias {
		if seen[v] {
			c.rep.add(DVIViaMismatch, v.Net, v.Base, "via listed twice in the instance")
			continue
		}
		seen[v] = true
		if v.Net < 0 || int(v.Net) >= len(c.nets) {
			c.rep.add(DVIViaMismatch, v.Net, v.Base, "via owned by unknown net")
			continue
		}
		if !c.nets[v.Net].vias[v.Base] {
			c.rep.add(DVIViaMismatch, v.Net, v.Base, "instance via not present in the routed solution")
		}
	}
}

func (c *refChecker) checkInsertionFeasible(v dvi.Via, cand geom.Pt) {
	at := geom.XYL(cand.X, cand.Y, v.Layer())
	if cand.X < 0 || cand.X >= c.nl.W || cand.Y < 0 || cand.Y >= c.nl.H {
		c.rep.add(DVIInfeasible, v.Net, at, "candidate %v outside the grid", cand)
		return
	}
	if v.Net < 0 || int(v.Net) >= len(c.nets) || !c.nets[v.Net].valid {
		return // geometry already reported
	}
	dx, dy := cand.X-v.Base.X, cand.Y-v.Base.Y
	var stubArm uint8
	switch {
	case dx == 1:
		stubArm = armE
	case dx == -1:
		stubArm = armW
	case dy == 1:
		stubArm = armN
	default:
		stubArm = armS
	}
	stubVertical := dy != 0

	for _, l := range [2]int{v.Base.Layer, v.Base.Layer + 1} {
		mp := geom.XYL(cand.X, cand.Y, l)
		for _, owner := range c.metalOwner[mp] {
			if owner != v.Net {
				c.rep.add(DVIInfeasible, v.Net, at,
					"candidate metal point %v occupied by net %d", mp, owner)
			}
		}
		arms := c.nets[v.Net].arms[geom.XYL(v.Base.X, v.Base.Y, l)]
		if arms&stubArm != 0 {
			continue
		}
		perp := arms & (armN | armS)
		if stubVertical {
			perp = arms & (armE | armW)
		}
		for _, bit := range [4]uint8{armE, armW, armN, armS} {
			if perp&bit == 0 {
				continue
			}
			h, vv := stubArm, bit
			if stubVertical {
				h, vv = bit, stubArm
			}
			if forbiddenL(c.opt.SADP, geom.XY(v.Base.X, v.Base.Y), h, vv) &&
				!stubExtensionOK(c.opt.SADP, stubVertical) {
				c.rep.add(DVIInfeasible, v.Net, at,
					"metal extension on layer %d forms a forbidden turn at %v", l, v.Base.Pt2())
			}
		}
	}
}
