package router

import (
	"fmt"
	"math/bits"

	"repro/internal/coloring"
	"repro/internal/geom"
)

// Search states carry the incoming travel direction so turn legality
// and turn costs are exact: a planar state's wire arm at point p
// extends back toward where it came from. Via arrivals are distinct
// states (no arm on the landing layer, but immediate z-reversal — a
// via "pump" that would evade turn checks — is forbidden). dirNone
// states are pin starts and T-branch sources.
const numDirStates = 7 // none, E, W, N, S, up, down

func dirState(d geom.Dir) int {
	switch d {
	case geom.East:
		return 1
	case geom.West:
		return 2
	case geom.North:
		return 3
	case geom.South:
		return 4
	case geom.Up:
		return 5
	case geom.Down:
		return 6
	}
	return 0
}

var stateDirs = [numDirStates]geom.Dir{
	geom.None, geom.East, geom.West, geom.North, geom.South, geom.Up, geom.Down,
}

// armBit maps a planar direction to the arm bitmask used by
// grid.Route.ArmMask (East=1, West=2, North=4, South=8).
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

func armOf(bit uint8) geom.Dir {
	switch bit {
	case 1:
		return geom.East
	case 2:
		return geom.West
	case 4:
		return geom.North
	case 8:
		return geom.South
	}
	return geom.None
}

// cell is one search state's scratch record: tentative distance,
// parent state, and the epoch stamp that validates both. Packing the
// three into a single 16-byte struct keeps a relaxation (read stamp +
// dist, write all three) inside one cache line instead of touching
// three parallel arrays.
type cell struct {
	dist   int64
	parent int32
	stamp  uint32
}

// searchScratch holds the reusable state of the windowed search: the
// epoch-stamped distance/parent cells, the Dial bucket queue, and the
// path-reversal buffer. Nothing in here is allocated per search
// once the buffers have grown to the largest window seen.
//
// Epoch stamping: a cell's dist/parent values are valid only when its
// stamp equals the current epoch. reset bumps the epoch instead of
// clearing the array, making per-search setup O(1); stale cells read
// as infCost through distAt.
type searchScratch struct {
	cells   []cell
	epoch   uint32
	bq      bucketQueue
	pathRev []geom.Pt3
	pathFwd []geom.Pt3
	win     geom.Rect
	wW, wH  int
	layers  int

	// arms caches the partial route's arm mask per in-window point for
	// the duration of one search (the route is fixed while the search
	// runs). It replaces a map lookup per expansion with an array read;
	// armStamp epoch-validates entries exactly like stamp does for dist.
	arms     []uint8
	armStamp []uint32
}

const infCost = int64(1) << 62

func (s *searchScratch) reset(win geom.Rect, layers int) {
	s.win, s.layers = win, layers
	s.wW, s.wH = win.Width(), win.Height()
	n := s.wW * s.wH * layers * numDirStates
	np := s.wW * s.wH * layers
	if cap(s.cells) < n {
		// Grow geometrically: the HPWL-ascending first pass makes
		// almost every net a new largest window, and an exact-size
		// reallocation would zero a fresh array each time.
		c := max(n, 2*cap(s.cells))
		s.cells = make([]cell, n, c)
		s.arms = make([]uint8, np, c/numDirStates)
		s.armStamp = make([]uint32, np, c/numDirStates)
		s.epoch = 0
	} else {
		s.cells = s.cells[:n]
		s.arms = s.arms[:np]
		s.armStamp = s.armStamp[:np]
	}
	s.epoch++
	if s.epoch == 0 {
		// uint32 wraparound: every stale stamp would read as current.
		// Clear once every ~4 billion searches and restart at 1.
		for i := range s.cells {
			s.cells[i].stamp = 0
		}
		for i := range s.armStamp {
			s.armStamp[i] = 0
		}
		s.epoch = 1
	}
	s.bq.reset()
}

// pointIdx is the in-window dense index of a 3-D point (no direction
// component); stateIdx(p, ds) == pointIdx(p)*numDirStates + ds.
func (s *searchScratch) pointIdx(p geom.Pt3) int32 {
	return int32((p.Layer*s.wH+(p.Y-s.win.MinY))*s.wW + (p.X - s.win.MinX))
}

// loadArms records the route's arm masks for every in-window route
// point; armsAt then serves them from scratch.
func (s *searchScratch) loadArms(r routeView) {
	if r.Empty() {
		return
	}
	arms := r.ArmList()
	for k, p := range r.PointList() {
		if !s.win.Contains(p.Pt2()) || p.Layer >= s.layers {
			continue
		}
		i := s.pointIdx(p)
		s.arms[i] = arms[k]
		s.armStamp[i] = s.epoch
	}
}

// armsAt returns the cached arm mask of p (0 when the route has no
// metal there).
func (s *searchScratch) armsAt(p geom.Pt3) uint8 {
	i := s.pointIdx(p)
	if s.armStamp[i] != s.epoch {
		return 0
	}
	return s.arms[i]
}

// distAt returns the tentative distance of a state, infCost when the
// cell was not written this epoch.
func (s *searchScratch) distAt(id int32) int64 {
	c := &s.cells[id]
	if c.stamp != s.epoch {
		return infCost
	}
	return c.dist
}

// setDist records a tentative distance and parent, stamping the cell
// into the current epoch.
func (s *searchScratch) setDist(id int32, d int64, parent int32) {
	s.cells[id] = cell{dist: d, parent: parent, stamp: s.epoch}
}

func (s *searchScratch) stateIdx(p geom.Pt3, ds int) int32 {
	return int32(((p.Layer*s.wH+(p.Y-s.win.MinY))*s.wW+(p.X-s.win.MinX))*numDirStates + ds)
}

func (s *searchScratch) statePt(idx int32) (geom.Pt3, int) {
	ds := int(idx) % numDirStates
	rest := int(idx) / numDirStates
	x := rest%s.wW + s.win.MinX
	rest /= s.wW
	y := rest%s.wH + s.win.MinY
	l := rest / s.wH
	return geom.XYL(x, y, l), ds
}

// pqItem is a queue entry: f is the A* key — the exact cost g from the
// sources plus the admissible lower bound to the target (g itself when
// the bound is disabled). g is recovered at pop time by subtracting
// the bound, recomputed exactly. xyl packs the state's absolute
// coordinates and layer so a pop needs no division to recover them
// (id still encodes the direction state). rank is the state's tie rank
// (lowerBound): equal keys pop highest rank first, then in push order.
// Stale entries — whose g exceeds the state's current tentative
// distance — are skipped on pop.
type pqItem struct {
	f    int64
	id   int32
	xyl  uint32
	rank uint8
}

// packXYL fits x and y in 14 bits each and the layer in 4; New
// rejects grids beyond MaxTracks and MaxLayers.
func packXYL(p geom.Pt3) uint32 {
	return uint32(p.X) | uint32(p.Y)<<14 | uint32(p.Layer)<<28
}

func unpackXYL(v uint32) geom.Pt3 {
	return geom.XYL(int(v&0x3fff), int(v>>14&0x3fff), int(v>>28))
}

// push enqueues a state with its key and tie rank.
//
//sadplint:hotpath queue push runs per relaxed edge of the search
func (s *searchScratch) push(f int64, rank uint8, id int32, xyl uint32) {
	s.bq.push(pqItem{f: f, id: id, xyl: xyl, rank: rank})
}

// source is a search start state.
type source struct {
	p    geom.Pt3
	din  geom.Dir
	cost int64
}

// routeView is the subset of grid.Route the search needs; it keeps the
// search testable with lightweight fakes. ArmList is parallel to
// PointList.
type routeView interface {
	PointList() []geom.Pt3
	ArmList() []uint8
	Empty() bool
}

// findPath routes one two-pin connection from the net's connected
// component (the current route r plus the listed points) to target,
// using a window-bounded search that grows on failure up to the whole
// grid. Every window searched joins the searcher's read rect.
//
//sadplint:scratch the returned path aliases search scratch, valid until the next search
func (s *searcher) findPath(r routeView, connected []geom.Pt3, target geom.Pt3, net int32) ([]geom.Pt3, error) {
	return s.findPathMode(r, connected, target, net, false)
}

// findPathColumn is findPath with the target relaxed to the whole
// layer column above target's (x, y): the search succeeds on reaching
// the column at any layer. Steiner junctions are routed this way — a
// junction is a meeting point of same-net wires, not a terminal, so
// pinning it to layer 0 would force via stacks for no benefit.
//
//sadplint:scratch the returned path aliases search scratch, valid until the next search
func (s *searcher) findPathColumn(r routeView, connected []geom.Pt3, target geom.Pt3, net int32) ([]geom.Pt3, error) {
	return s.findPathMode(r, connected, target, net, true)
}

//sadplint:scratch the returned path aliases search scratch, valid until the next search
func (s *searcher) findPathMode(r routeView, connected []geom.Pt3, target geom.Pt3, net int32, anyLayer bool) ([]geom.Pt3, error) {
	s.colTarget = anyLayer
	defer func() { s.colTarget = false }()
	sources := s.srcBuf[:0]
	if r.Empty() {
		for _, p := range connected {
			sources = append(sources, source{p: p, din: geom.None})
		}
	} else {
		for _, p := range r.PointList() {
			sources = append(sources, source{p: p, din: geom.None})
		}
	}
	s.srcBuf = sources

	box := geom.NewRect(target.Pt2(), target.Pt2())
	for _, src := range sources {
		box = box.AddPt(src.p.Pt2())
	}
	clip := s.rt.g.Bounds()
	for margin := searchMargin; ; margin *= 2 {
		win := box.Expand(margin, clip)
		s.read = s.read.Union(win)
		if path, _, ok := s.dijkstra(r, sources, target, net, win); ok {
			return path, nil
		}
		if win == clip {
			return nil, fmt.Errorf("no path to %v (grid exhausted)", target)
		}
	}
}

// forbiddenTurn is the turn-table sentinel for an illegal L.
const forbiddenTurn = int64(-1)

// buildTurnTab precomputes the turn classification of every (point
// class, arm mask) pair: the metal shape created at a point is the
// union of the net's existing arms, the moving wire's incoming arm,
// and the exit direction. Exactly-two perpendicular arms form an L
// whose class gates the step; any other shape carries no L-turn
// constraint (straight wires, T-junctions, via landings). Entries hold
// the additional cost, or forbiddenTurn when the L is illegal. Turn
// legality depends on the point only through its coordinate parities
// (coloring.ClassOf), which is what makes the 4×16 table exhaustive.
func buildTurnTab(scheme coloring.Scheme, nonPrefTurnCost int64) (tab [coloring.NumPointClasses][16]int64) {
	for cls := 0; cls < coloring.NumPointClasses; cls++ {
		p := geom.XY(cls&1, cls>>1) // representative point of the class
		for arms := uint8(0); arms < 16; arms++ {
			if bits.OnesCount8(arms) != 2 {
				continue
			}
			lo := arms & (arms - 1) // clear lowest set bit
			a1 := armOf(arms &^ lo)
			a2 := armOf(lo)
			corner, isCorner := coloring.CornerOf(a1, a2)
			if !isCorner {
				continue // straight (E|W or N|S)
			}
			switch scheme.Turn(p, corner) {
			case coloring.Forbidden:
				tab[cls][arms] = forbiddenTurn
			case coloring.NonPreferred:
				tab[cls][arms] = nonPrefTurnCost
			}
		}
	}
	return tab
}

// lowerBound is the A* heuristic and the state's tie rank. Every
// remaining planar unit step costs at least CostScale (the
// preferred-direction wire cost; non-preferred steps, turn penalties
// and node costs only add — Params.Validate keeps NonPrefMul ≥ 1 and
// every other term ≥ 0), and every remaining layer crossing costs at
// least the base via cost. A state that can reach a goal on its own
// layer — one on a point target's layer, or any state of a column
// search — also pays for the d tracks that separate it from the goal
// across its layer's preferred direction: d non-preferred steps, each
// (NonPrefMul−1)·CostScale dearer than a preferred one, or the vias
// that avoid them (crossBound).
//
// The bound is admissible and consistent: a preferred step changes it
// by at most CostScale, a non-preferred step by at most
// NonPrefMul·CostScale, and a via step by at most the base via cost
// (leaving a point target's layer trades a cross term of at most two
// vias for one via of layer term). So the first pop of the target is
// optimal and the found path cost equals plain Dijkstra's.
//
// The rank is the cross term's step count (crossBound.at): among
// equal keys the queue pops the larger cross term first, which is the
// smaller key under the bound without it, so ties fall back to the
// order that bound gave.
func (s *searcher) lowerBound(p, target geom.Pt3) (int64, uint8) {
	rt := s.rt
	if rt.noAStar {
		return 0, 0
	}
	dx, dy := p.X-target.X, p.Y-target.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	h := int64(dx+dy) * CostScale
	cross := &rt.crossPoint
	if s.colTarget {
		cross = &rt.crossColumn
	} else if p.Layer != target.Layer {
		ld := int64(p.Layer - target.Layer)
		if ld < 0 {
			ld = -ld
		}
		return h + ld*rt.minViaCost, 0
	}
	d := dy
	if !rt.g.PrefHorizontal(p.Layer) {
		d = dx
	}
	x, rank := cross.at(d)
	return h + x, rank
}

// crossBound is the cross-preferred term of the A* bound for one kind
// of target: for a state d tracks across its layer's preferred
// direction from the goal it is min(d·step, cap), where step is the
// surcharge of one non-preferred step and cap the vias that avoid them
// all — two (leave the layer and come back) for a point target, one
// for a column target, whose goal spans every layer.
type crossBound struct {
	step, cap int64
	// sat is the least d with d·step ≥ cap: the term is flat from sat
	// tracks on. It is 0 when there is no term (NonPrefMul 1 or a free
	// via).
	sat int64
}

func newCrossBound(step, cap int64) crossBound {
	if step == 0 || cap == 0 {
		return crossBound{}
	}
	sat := cap / step
	if cap%step != 0 {
		sat++
	}
	return crossBound{step: step, cap: cap, sat: sat}
}

// at returns the term for d tracks and its tie rank: d capped at sat
// and at maxRank, so a larger rank always means a larger term. For
// the parameter blocks where sat exceeds maxRank, states farther than
// maxRank tracks share the top rank and pop in push order.
func (c *crossBound) at(d int) (int64, uint8) {
	if int64(d) >= c.sat {
		return c.cap, uint8(min(c.sat, maxRank))
	}
	return int64(d) * c.step, uint8(min(d, maxRank))
}

// dijkstra runs the goal-directed (A*) variant of the modified
// Dijkstra search within win. It returns the path source→target and
// its cost, or ok=false when the target is unreachable in the window.
// It reads the router's shared state inside win only and writes
// nothing but the searcher.
//
//sadplint:hotpath the inner search step; millions of node expansions per job
//sadplint:scratch the returned path aliases search scratch, valid until the next search
func (sr *searcher) dijkstra(r routeView, sources []source, target geom.Pt3, net int32, win geom.Rect) ([]geom.Pt3, int64, bool) {
	rt := sr.rt
	s := &sr.search
	s.reset(win, rt.g.NumLayers)
	s.loadArms(r)
	sr.searches++
	for _, src := range sources {
		if !win.Contains(src.p.Pt2()) {
			continue
		}
		id := s.stateIdx(src.p, dirState(src.din))
		if src.cost < s.distAt(id) {
			s.setDist(id, src.cost, -1)
			h, rank := sr.lowerBound(src.p, target)
			s.push(src.cost+h, rank, id, packXYL(src.p))
		}
	}
	P := rt.cfg.Params
	nonPrefStep := P.NonPrefMul * CostScale
	baseViaCost := P.ViaCost * CostScale
	// In the TPL phase a via site whose use would create an FVP is
	// blocked (Fig 10), unless the blocks are lifted.
	blockFVPs := rt.tplPhase && !rt.ignoreBlocks
	// Neighbor state ids derive incrementally from the popped point
	// index: one point step is ±1 (x), ±wW (y) or ±wW·wH (layer) in
	// the dense window layout. pointDelta is ordered like
	// geom.PlanarDirs; the matching direction states are 1..4.
	pointDelta := [4]int{1, -1, s.wW, -s.wW}
	layerDelta := s.wW * s.wH
	gridDelta := [4]int{1, -1, rt.g.W, -rt.g.W}
	for s.bq.n > 0 {
		it := s.bq.pop()
		sr.pops++
		p := unpackXYL(it.xyl)
		ds := int(it.id) % numDirStates
		pIdx := int(it.id) / numDirStates
		h, _ := sr.lowerBound(p, target)
		g := it.f - h
		if g > s.cells[it.id].dist {
			continue // stale
		}
		if p == target || (sr.colTarget && p.Pt2() == target.Pt2()) {
			if checkBound && h != 0 {
				badGoalBound(p, h)
			}
			return s.rebuildPath(it.id), g, true
		}
		din := stateDirs[ds]
		// The metal shape any exit step joins: the net's existing arms
		// at p plus the moving wire's incoming arm.
		baseArms := s.armsAt(p)
		if din.Planar() {
			baseArms |= armBit(din.Opposite())
		}
		turnRow := &rt.turnTab[p.X&1|(p.Y&1)<<1]
		// Per-layer folded price row (assigned costs + history), hoisted
		// out of the planar-move loop.
		mp := rt.metalPrice[p.Layer]
		occ := rt.g.Metal[p.Layer]
		prefHorizontal := rt.g.PrefHorizontal(p.Layer)
		gp := p.Y*rt.g.W + p.X
		// Planar moves.
		for di, d := range geom.PlanarDirs {
			if din.Planar() && d == din.Opposite() {
				continue // no U-turns
			}
			np := p.Step(d)
			if !win.Contains(np.Pt2()) {
				continue
			}
			if rt.foreignPin(np, net) {
				continue
			}
			turnCost := turnRow[baseArms|armBit(d)]
			if turnCost == forbiddenTurn {
				continue
			}
			step := int64(CostScale)
			if d.Horizontal() != prefHorizontal {
				step = nonPrefStep
			}
			cost := g + step + turnCost
			pi := gp + gridDelta[di]
			cost += mp[pi]
			if k := occ.CountOther(np.Pt2(), net); k > 0 {
				cost += int64(k) * rt.presFac
			}
			if checkBound {
				sr.checkEdge(p, np, h, cost-g, target)
			}
			nid := int32((pIdx+pointDelta[di])*numDirStates + di + 1)
			if cost < s.distAt(nid) {
				s.setDist(nid, cost, it.id)
				h, rank := sr.lowerBound(np, target)
				s.push(cost+h, rank, nid, packXYL(np))
			}
		}
		// Via moves.
		for vi, d := range [2]geom.Dir{geom.Up, geom.Down} {
			if din.Via() && d == din.Opposite() {
				continue // no via pumps
			}
			np := p.Step(d)
			if np.Layer < 0 || np.Layer >= rt.g.NumLayers {
				continue
			}
			if rt.foreignPin(np, net) {
				continue
			}
			vl := p.Layer
			nd := layerDelta
			if d == geom.Down {
				vl = np.Layer
				nd = -layerDelta
			}
			pi := gp
			if blockFVPs && rt.g.Vias[vl].WouldCreateFVP(p.Pt2()) {
				continue
			}
			cost := g + baseViaCost + rt.viaPrice[vl][pi]
			cost += rt.metalNodeCost(np, net)
			if checkBound {
				sr.checkEdge(p, np, h, cost-g, target)
			}
			nid := int32((pIdx+nd)*numDirStates + 5 + vi)
			if cost < s.distAt(nid) {
				s.setDist(nid, cost, it.id)
				h, rank := sr.lowerBound(np, target)
				s.push(cost+h, rank, nid, packXYL(np))
			}
		}
	}
	return nil, 0, false
}

// checkBound makes every search assert that its bound is consistent
// on every edge it relaxes and zero at the goal. Only router tests set
// it, while no search runs.
var checkBound = false

// checkEdge panics unless h(u) ≤ c + h(v) on the edge u→v of cost c,
// given hu = h(u).
func (sr *searcher) checkEdge(u, v geom.Pt3, hu, c int64, target geom.Pt3) {
	if hv, _ := sr.lowerBound(v, target); hu > c+hv {
		panic(fmt.Sprintf("router: A* bound inconsistent on %v→%v (target %v, column %v): h %d > step %d + h %d",
			u, v, target, sr.colTarget, hu, c, hv))
	}
}

func badGoalBound(p geom.Pt3, h int64) {
	panic(fmt.Sprintf("router: A* bound %d at goal %v", h, p))
}

// foreignPin reports whether p is another net's pin cell (layer 0
// terminals are hard obstacles for every other net).
func (rt *Router) foreignPin(p geom.Pt3, net int32) bool {
	if p.Layer != 0 {
		return false
	}
	o := rt.pinOwner[rt.g.PIdx(p.Pt2())]
	return o != 0 && o != net+1
}

// metalNodeCost is the dynamic cost of occupying metal point p:
// assigned costs (BDC spill) plus history (the folded price), and the
// congestion penalty per foreign occupant.
func (rt *Router) metalNodeCost(p geom.Pt3, net int32) int64 {
	pi := rt.g.PIdx(p.Pt2())
	c := rt.metalPrice[p.Layer][pi]
	if k := rt.g.Metal[p.Layer].CountOther(p.Pt2(), net); k > 0 {
		c += int64(k) * rt.presFac
	}
	return c
}

// rebuildPath walks the parent chain into the reused reversal buffer,
// then emits the forward path, dropping consecutive duplicates (none
// expected, but cheap to guarantee). The returned slice is scratch,
// valid only until the next search — callers that keep the path copy
// it (grid.Route.AddPathCopy).
//
//sadplint:scratch returns the reused pathFwd buffer, valid until the next search
func (s *searchScratch) rebuildPath(id int32) []geom.Pt3 {
	rev := s.pathRev[:0]
	for id != -1 {
		p, _ := s.statePt(id)
		rev = append(rev, p)
		id = s.cells[id].parent
	}
	s.pathRev = rev
	out := s.pathFwd[:0]
	for i := len(rev) - 1; i >= 0; i-- {
		if len(out) == 0 || out[len(out)-1] != rev[i] {
			out = append(out, rev[i])
		}
	}
	s.pathFwd = out
	return out
}
