// Package router implements SADP-aware detailed routing with double
// via insertion and via-layer TPL manufacturability consideration — the
// paper's core contribution (§III).
//
// The flow (Fig 8): model the routing graph over the pre-colored grid,
// route nets independently with a turn-aware windowed Dijkstra, resolve
// congestion with negotiated rip-up-and-reroute, then (when via-layer
// TPL is considered) eliminate all forbidden via patterns with a
// dedicated R&R phase and verify global 3-colorability of the via
// decomposition graph. The cost assignment scheme (§III-B) adds BDC,
// AMC, CDC and TPLC to the routing graph after each net is routed so
// that subsequent nets avoid killing DVI opportunities or creating TPL
// conflicts.
package router

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/steiner"
)

// Router routes one netlist. Create with New, run with Run.
type Router struct {
	cfg Config
	nl  *netlist.Netlist
	g   *grid.Grid

	routes  []*grid.Route
	ledgers []ledger
	feas    dvi.Feasibility

	// Added routing costs, indexed like the grid.
	metalCost [][]int64 // per routing layer, per point: BDC spill onto metal
	viaCost   [][]int64 // per via layer, per site: BDC + AMC + CDC
	viaConf   [][]int32 // per via layer, per site: coloring-conflict count for TPLC
	histMetal [][]int64 // negotiated-congestion history, metal points
	histVia   [][]int64 // history, via sites
	blockVia  [][]bool  // via sites blocked during TPL violation removal

	// Folded per-point prices, the only cost arrays the search reads:
	//   metalPrice = metalCost + histMetal
	//   viaPrice   = viaCost + histVia + Gamma·CostScale·viaConf
	// Every writer of the semantic arrays above updates the folds in
	// the same integer operation, so the sums are exact, and the hot
	// loop touches one cache line where it used to touch two (metal)
	// or three (via).
	metalPrice [][]int64
	viaPrice   [][]int64

	presFac int64 // current congestion penalty factor
	rng     *rand.Rand

	// pinOwner[pidx] is 1+netID of the net owning a pin at that layer-0
	// point, or 0. Foreign pin cells are hard obstacles: routing over
	// another net's terminal is a short no negotiation can fix.
	pinOwner []int32

	// ignoreBlocks lifts the blocked-via-site constraint for one
	// search: the escape hatch when blocking walls off a net's pins.
	// Any FVP the unblocked route creates re-enters the violation
	// queue.
	ignoreBlocks bool
	// colTarget relaxes the current search's goal to the target's whole
	// layer column (set by findPathColumn for Steiner junctions, which
	// are wire meeting points, not layer-0 terminals).
	colTarget bool

	search searchScratch
	srcBuf []source // reused per-connection source list

	// Rip-up/reroute recycling: ripped Route objects (with their path,
	// cache and map storage) are reused by the next routeNet instead of
	// being re-allocated — the rip-up loops churn through thousands of
	// them. routeNet's per-call pin working sets are reused the same
	// way.
	spareRoutes []*grid.Route
	pinBuf      []geom.Pt3
	connBuf     []geom.Pt3
	remBuf      []geom.Pt3
	pinSeen     map[geom.Pt]bool

	// topos caches each net's Steiner topology. A topology is a pure
	// function of the net's pin set and the static obstacle verdicts
	// (foreign pins, Steiner cells claimed by earlier nets), so rip-up
	// and reroute cycles reuse it — the whole net keeps its tree shape
	// while negotiation moves the wires realizing it.
	topos []*steiner.Tree
	// steinerOwner maps a grid cell claimed as a Steiner point to
	// 1+netID of the claiming net. Later topologies avoid claimed
	// cells: two nets each *forced* through the same cell would be a
	// congestion no negotiation could ever resolve. Claims happen in
	// deterministic routing order, so the reservation set — and with it
	// every topology — is reproducible.
	steinerOwner map[geom.Pt]int32
	// steinerB recycles the topology generator's scratch across nets
	// and (through the arena) across runs.
	steinerB steiner.Builder
	ptBuf    []geom.Pt // reused 2-D pin list for topology building

	// scanStamp/scanEpoch deduplicate the via-driven blocked-site
	// discovery (initBlockedVias): overlapping 5×5 neighborhoods of
	// nearby vias share cells, and each cell is examined once per
	// epoch.
	scanStamp []uint32
	scanEpoch uint32
	// siteBuf is recycled storage for occupied-via-site snapshots
	// (tpl.AppendSites) taken during TPL bookkeeping.
	siteBuf []geom.Pt
	// victimBuf and ripViasBuf are recycled per-violation working sets
	// of the TPL rip-up loop (candidate victim nets, ripped via
	// snapshots).
	victimBuf  []int32
	ripViasBuf []geom.Pt3
	// dvicBuf is recycled storage for per-via feasible-DVIC queries in
	// the cost assignment (≤4 entries, rewritten for every via).
	dvicBuf []geom.Pt

	// minViaCost is the precomputed per-layer-crossing term of the A*
	// lower bound: the base via cost (Params.Validate guarantees it is
	// not negative).
	minViaCost int64
	// noAStar disables the goal-directed lower bound so the search runs
	// as plain Dijkstra. Only router tests set it, as the reference the
	// A* costs are checked against.
	noAStar bool
	// turnTab[class][arms] is the precomputed turn cost (or
	// forbiddenTurn) of the metal shape arms at a point of that color
	// class; see buildTurnTab.
	turnTab [coloring.NumPointClasses][16]int64

	stats Stats

	// debugLog, when set, receives progress lines from the violation
	// removal loops.
	debugLog func(format string, args ...interface{})
	// debugVictim, when set, observes each rip-up victim choice.
	debugVictim func(p geom.Pt3, id int32)
	// debugTPLIter, when set, observes the incremental TPL state at the
	// top of every violation-removal iteration. Tests use it to
	// cross-check blockVia and the fvps map against full rescans and to
	// run the independent verifier per iteration.
	debugTPLIter func(iter int, fvps map[fvpKey]bool)
}

func (rt *Router) logf(format string, args ...interface{}) {
	if rt.debugLog != nil {
		rt.debugLog(format, args...)
	}
}

// Stats aggregates what the paper's tables report per circuit.
type Stats struct {
	// Routability is the fraction of nets successfully routed.
	Routability float64
	// Wirelength is the total number of planar unit segments.
	Wirelength int
	// Vias is the total via count.
	Vias int
	// RRIterations counts congestion rip-up-and-reroute iterations.
	RRIterations int
	// TPLRRIterations counts via-layer TPL violation removal
	// iterations.
	TPLRRIterations int
	// FVPsResolved counts FVP violations resolved in the TPL R&R.
	FVPsResolved int
	// ColorFixIterations counts nets ripped in the final 3-colorability
	// fix-up (expected 0; §III-D).
	ColorFixIterations int
	// TPLDegraded is set when Config.TPLBudget expired and the TPL
	// violation-removal phase returned its best-so-far solution.
	TPLDegraded bool
	// RemainingFVPs counts the forbidden via patterns left unresolved
	// by a degraded TPL phase (0 on a full run).
	RemainingFVPs int
	// SteinerNets counts nets whose multi-pin decomposition came from
	// the Steiner topology generator (k ≥ 3 pins, SteinerTopology).
	SteinerNets int
	// SteinerFallbacks counts routing attempts where a Steiner segment
	// proved unrealizable and the net fell back to the greedy
	// nearest-pin order for that attempt.
	SteinerFallbacks int
}

// ErrCanceled reports that the run was aborted through Config.Cancel.
// Callers that wire a context into Cancel should translate it back
// with errors.Is and ctx.Err().
var ErrCanceled = errors.New("router: run canceled")

// checkCancel polls the cooperative cancellation channel. It is called
// at iteration boundaries only — never inside a single net's search —
// so a canceled run stops within one rip-up round.
func (rt *Router) checkCancel() error {
	if rt.cfg.Cancel == nil {
		return nil
	}
	select {
	case <-rt.cfg.Cancel:
		return ErrCanceled
	default:
		return nil
	}
}

// New prepares a router for the netlist. The netlist must validate,
// and so must the parameters once a zero block has become
// DefaultParams; out-of-range parameters fail with an error wrapping
// ErrInvalidParams.
func New(nl *netlist.Netlist, cfg Config) (*Router, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(len(nl.Nets))
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if rt := cfg.Arena.take(nl); rt != nil {
		rt.reinit(nl, cfg)
		return rt, nil
	}
	g := grid.New(nl.W, nl.H, nl.NumLayers, cfg.Scheme)
	rt := &Router{
		cfg:     cfg,
		nl:      nl,
		g:       g,
		routes:  make([]*grid.Route, len(nl.Nets)),
		ledgers: make([]ledger, len(nl.Nets)),
		feas:    dvi.Feasibility{G: g},
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	rt.presFac = cfg.Params.UsagePenalty * CostScale
	rt.minViaCost = cfg.Params.ViaCost * CostScale
	rt.turnTab = buildTurnTab(cfg.Scheme, cfg.Params.NonPrefTurnCost*CostScale)
	np := nl.W * nl.H
	rt.pinOwner = make([]int32, np)
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			rt.pinOwner[p.Y*nl.W+p.X] = int32(n.ID) + 1
		}
	}
	rt.topos = make([]*steiner.Tree, len(nl.Nets))
	rt.steinerOwner = make(map[geom.Pt]int32)
	for l := 0; l < nl.NumLayers; l++ {
		rt.metalCost = append(rt.metalCost, make([]int64, np))
		rt.histMetal = append(rt.histMetal, make([]int64, np))
		rt.metalPrice = append(rt.metalPrice, make([]int64, np))
	}
	for v := 0; v < nl.NumLayers-1; v++ {
		rt.viaCost = append(rt.viaCost, make([]int64, np))
		rt.viaConf = append(rt.viaConf, make([]int32, np))
		rt.histVia = append(rt.histVia, make([]int64, np))
		rt.blockVia = append(rt.blockVia, make([]bool, np))
		rt.viaPrice = append(rt.viaPrice, make([]int64, np))
	}
	rt.scanStamp = make([]uint32, np)
	rt.search.bq.init(initialBucketSpan(cfg.Params))
	return rt, nil
}

// initialBucketSpan sizes the bucket ring from the cost parameters:
// with no accrued history or congestion the largest single-step key
// increment is bounded by the sum of the per-step cost components
// (wire step, turn penalty, via cost, and the assigned-cost weights,
// all in CostScale units). History and congestion penalties can exceed
// the hint at runtime; the ring then grows once and stays grown.
func initialBucketSpan(p Params) int64 {
	sum := p.NonPrefMul + p.NonPrefTurnCost + p.ViaCost +
		p.Alpha + p.Beta + p.Gamma + p.AMC + p.UsagePenalty
	span := int64(256)
	for span < sum*CostScale {
		span <<= 1
	}
	if span > 8192 {
		span = 8192
	}
	return span
}

// Grid exposes the routing grid (read-only use expected).
func (rt *Router) Grid() *grid.Grid { return rt.g }

// Routes returns the per-net routes after Run.
//
//sadplint:scratch the Route objects are arena-recycled, valid until Release/reinit
func (rt *Router) Routes() []*grid.Route { return rt.routes }

// Stats returns the routing statistics after Run.
func (rt *Router) Stats() Stats { return rt.stats }

// Run executes the full flow of Fig 8 up to (and excluding)
// post-routing DVI. It returns an error if any net cannot be routed or
// a violation phase fails to converge within its iteration budget.
func (rt *Router) Run() error {
	// Phase 1: independent routing iterations, shortest nets first.
	order := make([]int, len(rt.nl.Nets))
	for i := range order {
		order[i] = i
	}
	nets := rt.nl.Nets
	sortByHPWL(order, nets)
	for _, id := range order {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		if err := rt.routeNet(int32(id)); err != nil {
			return fmt.Errorf("router: initial routing of net %q: %w", nets[id].Name, err)
		}
		rt.applyNetCosts(int32(id))
	}
	// Phase 2: negotiated congestion R&R.
	if err := rt.resolveCongestion(); err != nil {
		return err
	}
	// Phase 3+4: TPL violation removal and 3-colorability check. A
	// degraded phase 3 (TPLBudget expired) skips the colorability
	// pass: its guarantee only holds for an FVP-free via layout.
	if rt.cfg.ConsiderTPL {
		if err := rt.removeTPLViolations(); err != nil {
			return err
		}
		if !rt.stats.TPLDegraded {
			if err := rt.ensureColorable(); err != nil {
				return err
			}
		}
	}
	rt.collectStats()
	return nil
}

func (rt *Router) collectStats() {
	routed := 0
	wl, vias := 0, 0
	for _, r := range rt.routes {
		if r == nil || r.Empty() {
			continue
		}
		routed++
		wl += r.Wirelength()
		vias += r.NumVias()
	}
	rt.stats.Routability = float64(routed) / float64(len(rt.nl.Nets))
	rt.stats.Wirelength = wl
	rt.stats.Vias = vias
}

func sortByHPWL(order []int, nets []*netlist.Net) {
	// Insertion-stable sort by HPWL; netlists are pre-validated.
	hp := make([]int, len(nets))
	for i, n := range nets {
		hp[i] = n.HPWL()
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if hp[a] != hp[b] {
			return hp[a] < hp[b]
		}
		return a < b
	})
}

// routeNet routes all pins of a net from scratch. The net must not be
// currently routed.
func (rt *Router) routeNet(id int32) error {
	net := rt.nl.Nets[id]
	var r *grid.Route
	if n := len(rt.spareRoutes); n > 0 {
		r = rt.spareRoutes[n-1]
		rt.spareRoutes = rt.spareRoutes[:n-1]
		r.Net = id
	} else {
		r = grid.NewRoute(id)
	}
	pins := rt.pinBuf[:0]
	if rt.pinSeen == nil {
		rt.pinSeen = map[geom.Pt]bool{}
	} else {
		clear(rt.pinSeen)
	}
	for _, p := range net.Pins {
		if !rt.pinSeen[p] {
			rt.pinSeen[p] = true
			pins = append(pins, geom.XYL(p.X, p.Y, 0))
		}
	}
	rt.pinBuf = pins
	if len(pins) > 2 && rt.cfg.Topology == SteinerTopology {
		if rt.routeSteinerTree(r, pins, id) {
			rt.routes[id] = r
			rt.g.AddRoute(r)
			return nil
		}
		// Some Steiner segment was unrealizable; r was reset. Fall
		// through to the greedy star order below.
	}
	// Connect pins nearest-first starting from pins[0].
	connected := append(rt.connBuf[:0], pins[0])
	remaining := append(rt.remBuf[:0], pins[1:]...)
	for len(remaining) > 0 {
		// Pick the unconnected pin closest to the connected set.
		bi, bd := 0, int(^uint(0)>>1)
		for i, p := range remaining {
			for _, q := range connected {
				if d := p.Pt2().ManhattanDist(q.Pt2()); d < bd {
					bd, bi = d, i
				}
			}
		}
		target := remaining[bi]
		remaining = append(remaining[:bi], remaining[bi+1:]...)
		rt.connBuf, rt.remBuf = connected, remaining
		path, err := rt.findPath(r, connected, target, id)
		if err != nil {
			return err
		}
		r.AddPathCopy(path) // path is search scratch, valid until the next findPath
		connected = append(connected, target)
	}
	rt.connBuf, rt.remBuf = connected[:0], remaining[:0]
	rt.routes[id] = r
	rt.g.AddRoute(r)
	return nil
}

// fallbackTopo marks a net whose Steiner topology proved unrealizable:
// a shared empty sentinel distinguishable from "not built yet" (nil)
// and from any real Build result (which always has segments for ≥ 2
// distinct pins). The net routes with the greedy order from then on.
var fallbackTopo = &steiner.Tree{}

// topology returns the net's cached Steiner decomposition, building it
// on first use. Candidate Steiner points are vetoed on foreign pin
// cells (hard obstacles for this net) and on cells already claimed as
// Steiner points by other nets — two nets forced to terminate wires on
// the same cell would be a congestion no negotiation could resolve.
// The surviving Steiner points are claimed for this net. Topologies
// are built in the deterministic initial routing order, so the claim
// set, and with it every later topology, is reproducible.
func (rt *Router) topology(id int32, pins []geom.Pt3) *steiner.Tree {
	if t := rt.topos[id]; t != nil {
		return t
	}
	pts := rt.ptBuf[:0]
	for _, p := range pins {
		pts = append(pts, p.Pt2())
	}
	rt.ptBuf = pts
	t := rt.steinerB.Build(pts, steiner.Options{
		Blocked: func(p geom.Pt) bool {
			if o := rt.pinOwner[p.Y*rt.nl.W+p.X]; o != 0 && o != id+1 {
				return true
			}
			o, ok := rt.steinerOwner[p]
			return ok && o != id+1
		},
	})
	for _, s := range t.Steiner {
		rt.steinerOwner[s] = id + 1
	}
	if len(t.Segs) > 1 {
		rt.stats.SteinerNets++
	}
	rt.topos[id] = t
	return t
}

// routeSteinerTree realizes the net's Steiner topology segment by
// segment. Each search is seeded with the net's entire routed
// component at cost zero, so a segment reuses already-routed wires of
// the same net as free trunk and only pays for new metal. It reports
// false — with r reset and the net marked for the greedy fallback —
// when a segment cannot be realized.
func (rt *Router) routeSteinerTree(r *grid.Route, pins []geom.Pt3, id int32) bool {
	tree := rt.topology(id, pins)
	if len(tree.Segs) == 0 {
		return false // fallback sentinel
	}
	root := append(rt.connBuf[:0], pins[0])
	rt.connBuf = root
	for _, seg := range tree.Segs {
		junction := false
		for _, s := range tree.Steiner {
			if s == seg.B {
				junction = true
				break
			}
		}
		target := geom.XYL(seg.B.X, seg.B.Y, 0)
		if !r.Empty() && rt.coversTarget(r, seg.B, junction) {
			continue // an earlier path already runs through this node
		}
		var path []geom.Pt3
		var err error
		if junction {
			// A Steiner junction is a meeting point of same-net wires,
			// not a terminal: reaching its column on any layer connects
			// the tree without forcing a via stack down to layer 0.
			path, err = rt.findPathColumn(r, root, target, id)
		} else {
			path, err = rt.findPath(r, root, target, id)
		}
		if err != nil {
			r.Reset()
			r.Net = id
			rt.topos[id] = fallbackTopo
			rt.stats.SteinerFallbacks++
			return false
		}
		r.AddPathCopy(path)
	}
	return true
}

// coversTarget reports whether the partial route already reaches a
// tree node: the exact layer-0 point for a pin, any layer of the
// node's column for a Steiner junction.
func (rt *Router) coversTarget(r *grid.Route, node geom.Pt, junction bool) bool {
	if !junction {
		return r.HasPoint(geom.XYL(node.X, node.Y, 0))
	}
	for l := 0; l < rt.g.NumLayers; l++ {
		if r.HasPoint(geom.XYL(node.X, node.Y, l)) {
			return true
		}
	}
	return false
}

// ripUp removes a net's route, cost contributions and occupancy. The
// Route object is recycled for the next routeNet — no caller retains a
// ripped route (ripUpTracked copies the via list it needs first).
func (rt *Router) ripUp(id int32) {
	r := rt.routes[id]
	if r == nil || r.Empty() {
		return
	}
	rt.revertNetCosts(id)
	rt.g.RemoveRoute(r)
	rt.routes[id] = nil
	r.Reset()
	rt.spareRoutes = append(rt.spareRoutes, r)
}

// reroute routes a previously ripped-up net and reapplies its costs.
func (rt *Router) reroute(id int32) error {
	if err := rt.routeNet(id); err != nil {
		return err
	}
	rt.applyNetCosts(id)
	return nil
}
