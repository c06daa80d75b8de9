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
	"math"
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

	// The routing costs, indexed like the grid: per routing layer and
	// per via layer, the sum at each cell of every assigned cost (BDC
	// on metal; BDC, AMC, CDC and TPLC on vias) and its
	// negotiated-congestion history. The search reads nothing else.
	metalPrice [][]int64
	viaPrice   [][]int64

	presFac int64 // current congestion penalty factor
	rng     *rand.Rand

	// pinOwner[pidx] is 1+netID of the net owning a pin at that layer-0
	// point, or 0. Foreign pin cells are hard obstacles: routing over
	// another net's terminal is a short no negotiation can fix.
	pinOwner []int32

	// tplPhase is set on entry to the TPL phase (removeTPLViolations)
	// and stays set through the color fix-up. While it is set, the
	// search refuses every via site whose use would create an FVP
	// (Fig 10) — it asks tpl.LayerVias.WouldCreateFVP, so the blocks
	// are a query, never a stored state — and ripUp and commit keep
	// fvps exact.
	tplPhase bool
	// ignoreBlocks lifts the FVP blocks for one reroute, or for a whole
	// TPL-phase congestion round: the escape hatch when blocking walls
	// off a net's pins or leaves it only a short (unblockAfter). Any FVP
	// an unblocked route creates enters fvps.
	ignoreBlocks bool
	// fvps is the TPL phase's violation set: every 3×3 window of a via
	// layer that holds a forbidden via pattern, nothing else. It is the
	// only incremental TPL state.
	fvps map[fvpKey]bool

	// searchers[0] is the calling goroutine's working state; the rest
	// belong to batch helpers (batch.go). They survive arena reuse; the
	// helper goroutines do not.
	searchers []*searcher
	// slots holds the current batch.
	slots []batchSlot
	crew  crew

	// Rip-up/reroute recycling: ripped Route objects (with their path,
	// cache and map storage) are reused by the next route instead of
	// being re-allocated — the rip-up loops churn through thousands of
	// them. Only the calling goroutine touches the pool: the batch
	// engine hands each slot its Route before the routing phase.
	spareRoutes []*grid.Route

	// topos caches each net's Steiner topology. A topology is a pure
	// function of the net's pin set and the static obstacle verdicts
	// (foreign pins, Steiner cells claimed by earlier nets), so rip-up
	// and reroute cycles reuse it — the whole net keeps its tree shape
	// while negotiation moves the wires realizing it.
	topos []*steiner.Tree
	// steinerOwner[pidx] is 1+netID of the net that claimed that grid
	// cell as a Steiner point, or 0. Later topologies avoid claimed
	// cells: two nets each *forced* through the same cell would be a
	// congestion no negotiation could ever resolve. Claims happen in
	// deterministic routing order, so the reservation set — and with it
	// every topology — is reproducible.
	steinerOwner []int32
	// siteBuf is recycled storage for the occupied-via-site snapshot
	// (tpl.AppendSites) of the TPL phase's initial FVP discovery.
	siteBuf []geom.Pt
	// victimBuf is the recycled candidate list of the TPL rip-up loop's
	// victim picks; netBuf holds one cell's occupant list for the
	// congestion victim picks and appendViaOwners; congBuf holds one
	// congestion round's victims.
	victimBuf []int32
	netBuf    []int32
	congBuf   []int32
	// dvicBuf is recycled storage for per-via feasible-DVIC queries in
	// the cost assignment (≤4 entries, rewritten for every via).
	dvicBuf []geom.Pt

	// minViaCost is the precomputed per-layer-crossing term of the A*
	// lower bound: the base via cost (Params.Validate guarantees it is
	// not negative). crossPoint and crossColumn are its cross-preferred
	// terms for point and column targets (lowerBound).
	minViaCost  int64
	crossPoint  crossBound
	crossColumn crossBound
	// noAStar disables the goal-directed lower bound so the search runs
	// as plain Dijkstra. Only router tests set it, as the reference the
	// A* costs are checked against.
	noAStar bool
	// turnTab[class][arms] is the precomputed turn cost (or
	// forbiddenTurn) of the metal shape arms at a point of that color
	// class; see buildTurnTab.
	turnTab [coloring.NumPointClasses][16]int64

	stats Stats

	// debugTPLIter, when set, is called at the top of every
	// violation-removal iteration. Tests use it to cross-check fvps and
	// the congestion sets against full rescans and to run the
	// independent verifier per iteration.
	debugTPLIter func(iter int)
	// debugCommit, when set, is called before (done false) and after
	// (done true) every commit that succeeds. Tests use it to check
	// that a commit writes nothing outside the net's write rect.
	debugCommit func(res *netRoute, done bool)
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
	// Searches counts windowed searches (one per window tried per
	// connection); Pops counts their queue pops, stale entries
	// included. Both are exact and machine-independent: equal counts
	// mean the search expanded the same states in the same order.
	// Speculative batch routes that were redone count once, as the
	// committed attempt.
	Searches int
	Pops     int64
	// BatchedNets counts nets routed in batches of two or more: the
	// first pass and the congestion rounds of phase 2 and of the TPL
	// phase (an FVP victim or a color fix-up net reroutes as a one-net
	// batch, which neither counter counts). Redone counts the
	// speculative routes among them that read a cell an earlier net of
	// their batch wrote, and were routed again in order. Both are
	// independent of GOMAXPROCS.
	BatchedNets int
	Redone      int
}

// The router's grid limits. packXYL holds x and y in 14 bits each and
// the layer in 4, and search state ids are int32 over W·H·layers·7
// direction states.
const (
	MaxTracks = 1 << 14
	MaxLayers = 16
)

// ErrGridTooLarge reports a grid beyond the router's limits (see
// CheckGrid).
var ErrGridTooLarge = errors.New("grid exceeds the router's limits")

// CheckGrid reports whether a w×h grid with the given number of
// routing layers is within the router's limits: at most MaxTracks
// tracks each way, at most MaxLayers layers, and a search state space
// (w·h·layers·7) that fits int32. The error wraps ErrGridTooLarge.
// Positive dimensions are the netlist's own check.
func CheckGrid(w, h, layers int) error {
	switch {
	case w > MaxTracks || h > MaxTracks:
		return fmt.Errorf("router: grid %dx%d has more than %d tracks: %w", w, h, MaxTracks, ErrGridTooLarge)
	case layers > MaxLayers:
		return fmt.Errorf("router: %d routing layers, more than %d: %w", layers, MaxLayers, ErrGridTooLarge)
	case w*h*layers*numDirStates > math.MaxInt32:
		// Bounded above: with the checks before, the product is < 2^35.
		return fmt.Errorf("router: grid %dx%dx%d has more than %d search states: %w",
			w, h, layers, math.MaxInt32, ErrGridTooLarge)
	}
	return nil
}

// ErrCanceled reports that the run was aborted through Config.Cancel.
// Callers that wire a context into Cancel should translate it back
// with errors.Is and ctx.Err().
var ErrCanceled = errors.New("router: run canceled")

// checkCancel polls the cooperative cancellation channel. It is called
// at batch and iteration boundaries only — never inside a single net's
// search — so a canceled run stops within one batch or rip-up round.
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

// New prepares a router for the netlist. The netlist must validate
// and its grid must pass CheckGrid, and the parameters must validate
// once a zero block has become DefaultParams; out-of-range parameters
// fail with an error wrapping ErrInvalidParams.
func New(nl *netlist.Netlist, cfg Config) (*Router, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if err := CheckGrid(nl.W, nl.H, nl.NumLayers); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	rt := cfg.Arena.take(nl)
	if rt == nil {
		rt = &Router{}
	}
	rt.bind(nl, cfg)
	return rt, nil
}

// bind prepares the router for a run of nl under cfg. It sizes every
// per-run array to the netlist: a fresh router allocates it, a
// recycled one (same grid shape, Arena.take guarantees it) clears what
// its last run wrote and keeps the storage. Epoch-stamped scratch — the
// searchers' visit stamps — is never cleared: every use bumps its epoch
// first, so a stale stamp cannot match.
func (rt *Router) bind(nl *netlist.Netlist, cfg Config) {
	rt.cfg, rt.nl = cfg, nl
	np := nl.W * nl.H
	if rt.g == nil {
		rt.g = grid.New(nl.W, nl.H, nl.NumLayers, cfg.Scheme)
		rt.rng = rand.New(rand.NewSource(0))
		rt.fvps = map[fvpKey]bool{}
		rt.searchers = []*searcher{rt.newSearcher()}
		rt.slots = make([]batchSlot, batchCap)
	} else {
		rt.g.Clear(cfg.Scheme)
	}
	// The previous solution's Route objects feed the spare pool.
	for _, r := range rt.routes {
		if r != nil {
			r.Reset()
			rt.spareRoutes = append(rt.spareRoutes, r)
		}
	}
	rt.routes = reuse(rt.routes, len(nl.Nets))
	rt.ledgers = resizeLedgers(rt.ledgers, len(nl.Nets))
	rt.topos = reuse(rt.topos, len(nl.Nets))
	rt.feas = dvi.Feasibility{G: rt.g}
	rt.rng.Seed(cfg.Seed + 1)
	rt.presFac = cfg.Params.UsagePenalty * CostScale
	rt.minViaCost = cfg.Params.ViaCost * CostScale
	nonPrefExtra := (cfg.Params.NonPrefMul - 1) * CostScale
	rt.crossPoint = newCrossBound(nonPrefExtra, 2*rt.minViaCost)
	rt.crossColumn = newCrossBound(nonPrefExtra, rt.minViaCost)
	rt.turnTab = buildTurnTab(cfg.Scheme, cfg.Params.NonPrefTurnCost*CostScale)
	rt.pinOwner = reuse(rt.pinOwner, np)
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			rt.pinOwner[p.Y*nl.W+p.X] = int32(n.ID) + 1
		}
	}
	rt.steinerOwner = reuse(rt.steinerOwner, np)
	rt.metalPrice = reuseRows(rt.metalPrice, nl.NumLayers, np)
	rt.viaPrice = reuseRows(rt.viaPrice, nl.NumLayers-1, np)
	clear(rt.fvps)
	rt.tplPhase, rt.ignoreBlocks, rt.noAStar = false, false, false
	rt.stats = Stats{}
	rt.crew.handoffs = 0
	rt.debugTPLIter, rt.debugCommit = nil, nil
}

// initialBucketSpan sizes the bucket ring from the cost parameters:
// with no accrued history or congestion the largest single-step key
// increment is bounded by the sum of the per-step cost components
// (wire step, turn penalty, via cost, and the assigned-cost weights,
// all in CostScale units) plus the largest rise of the A* bound over
// one step (a non-preferred step or a via, lowerBound). Tie ranks
// live in per-bucket lanes and add no width. History and congestion
// penalties can exceed the hint at runtime; the ring then grows once
// and stays grown.
func initialBucketSpan(p Params) int64 {
	sum := p.NonPrefMul + p.NonPrefTurnCost + p.ViaCost +
		p.Alpha + p.Beta + p.Gamma + p.AMC + p.UsagePenalty +
		max(p.NonPrefMul, p.ViaCost)
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
//sadplint:scratch the Route objects are arena-recycled, valid until Release
func (rt *Router) Routes() []*grid.Route { return rt.routes }

// Stats returns the routing statistics after Run.
func (rt *Router) Stats() Stats { return rt.stats }

// Run executes the full flow of Fig 8 up to (and excluding)
// post-routing DVI. It returns an error if any net cannot be routed or
// a violation phase fails to converge within its iteration budget.
func (rt *Router) Run() error {
	// Batch helpers start lazily; none outlives the run, whatever path
	// it returns (or panics) by.
	defer rt.stopHelpers()
	// Phase 1: independent routing iterations, shortest nets first.
	nets := rt.nl.Nets
	if id, err := rt.routeInOrder(hpwlOrder(nets)); err != nil {
		if id < 0 {
			return err
		}
		return fmt.Errorf("router: initial routing of net %q: %w", nets[id].Name, err)
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

// hpwlOrder returns the net ids by ascending HPWL, ties by id.
func hpwlOrder(nets []*netlist.Net) []int32 {
	hp := make([]int, len(nets))
	order := make([]int32, len(nets))
	for i, n := range nets {
		hp[i] = n.HPWL()
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if hp[a] != hp[b] {
			return hp[a] < hp[b]
		}
		return a < b
	})
	return order
}

// searcher is one goroutine's routing working state: the search
// scratch and the per-net working sets. route reads the router's
// shared state and writes only its searcher, its Route and its
// outcome, so searchers can route different nets concurrently.
type searcher struct {
	rt     *Router
	search searchScratch
	srcBuf []source // reused per-connection source list
	// Per-net pin working sets, reused across nets.
	pinBuf  []geom.Pt3
	connBuf []geom.Pt3
	remBuf  []geom.Pt3
	ptBuf   []geom.Pt // 2-D pin list for topology building
	// steinerB recycles the topology generator's scratch across nets
	// and (through the arena) across runs.
	steinerB steiner.Builder
	// colTarget relaxes the current search's goal to the target's whole
	// layer column (set by findPathColumn for Steiner junctions, which
	// are wire meeting points, not layer-0 terminals).
	colTarget bool
	// The current net's read rect and work counters.
	read     geom.Rect
	searches int
	pops     int64
	// panicked holds a value recovered on a helper goroutine, for the
	// caller to re-raise.
	panicked any
}

func (rt *Router) newSearcher() *searcher {
	s := &searcher{rt: rt}
	s.search.bq.init(initialBucketSpan(rt.cfg.Params))
	return s
}

// netRoute is one net's routing outcome: computed by a searcher
// against the router's shared state without writing it, applied by
// commit.
type netRoute struct {
	id  int32
	r   *grid.Route
	err error
	// read bounds every cell the attempt read: its pins' box (which
	// bounds the Steiner builder's Hanan queries) and every window it
	// searched.
	read geom.Rect
	// box bounds the route's points. Computing it builds the route's
	// point lists while the batch still routes concurrently, not in the
	// serial commit.
	box geom.Rect
	// built is the topology this attempt built, whose Steiner points
	// commit claims; nil when the net's topology was cached.
	built *steiner.Tree
	// fellBack marks a Steiner topology that proved unrealizable: the
	// net routes with the greedy order from then on.
	fellBack bool
	searches int
	pops     int64
}

// takeRoute returns a recycled Route, or a new one.
func (rt *Router) takeRoute() *grid.Route {
	if n := len(rt.spareRoutes); n > 0 {
		r := rt.spareRoutes[n-1]
		rt.spareRoutes = rt.spareRoutes[:n-1]
		return r
	}
	return grid.NewRoute(-1)
}

// route routes all pins of net id from scratch into the empty Route r
// and records the outcome in out. It writes no shared state; commit
// applies the outcome.
func (s *searcher) route(id int32, r *grid.Route, out *netRoute) {
	r.Net = id
	*out = netRoute{id: id, r: r}
	net := s.rt.nl.Nets[id]
	// Pins are distinct: New rejects netlists with duplicates
	// (netlist.ErrDuplicatePin).
	pins := s.pinBuf[:0]
	for _, p := range net.Pins {
		pins = append(pins, geom.XYL(p.X, p.Y, 0))
	}
	s.pinBuf = pins
	s.read, s.searches, s.pops = geom.BoundingRect(net.Pins), 0, 0
	out.err = s.routePins(r, pins, id, out)
	out.read, out.searches, out.pops = s.read, s.searches, s.pops
	out.box = geom.Rect{MinX: math.MaxInt, MinY: math.MaxInt, MaxX: math.MinInt, MaxY: math.MinInt}
	for _, p := range r.PointList() {
		out.box = out.box.AddPt(p.Pt2())
	}
}

func (s *searcher) routePins(r *grid.Route, pins []geom.Pt3, id int32, out *netRoute) error {
	if len(pins) > 2 && s.rt.cfg.Topology == SteinerTopology {
		if s.routeSteinerTree(r, pins, id, out) {
			return nil
		}
		// Some Steiner segment was unrealizable; r was reset. Fall
		// through to the greedy star order below.
	}
	// Connect pins nearest-first starting from pins[0].
	connected := append(s.connBuf[:0], pins[0])
	remaining := append(s.remBuf[:0], pins[1:]...)
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
		s.connBuf, s.remBuf = connected, remaining
		path, err := s.findPath(r, connected, target, id)
		if err != nil {
			return err
		}
		r.AddPathCopy(path) // path is search scratch, valid until the next findPath
		connected = append(connected, target)
	}
	s.connBuf, s.remBuf = connected[:0], remaining[:0]
	return nil
}

// commit applies a routing outcome to the shared state: the route and
// its occupancy, the topology and its Steiner claims, the cost
// assignment, and the attempt's counters. A failed attempt commits its
// topology and counters, recycles its Route and returns its error.
func (rt *Router) commit(res *netRoute) error {
	id := res.id
	if res.err == nil {
		if rt.debugCommit != nil {
			rt.debugCommit(res, false)
		}
		rt.routes[id] = res.r
		rt.g.AddRoute(res.r)
		rt.trackFVPs(res.r)
	}
	if t := res.built; t != nil {
		for _, s := range t.Steiner {
			rt.steinerOwner[s.Y*rt.nl.W+s.X] = id + 1
		}
		rt.topos[id] = t
		if len(t.Segs) > 1 {
			rt.stats.SteinerNets++
		}
	}
	if res.fellBack {
		rt.topos[id] = fallbackTopo
		rt.stats.SteinerFallbacks++
	}
	rt.stats.Searches += res.searches
	rt.stats.Pops += res.pops
	if res.err != nil {
		res.r.Reset()
		rt.spareRoutes = append(rt.spareRoutes, res.r)
		return res.err
	}
	rt.applyNetCosts(id)
	if rt.debugCommit != nil {
		rt.debugCommit(res, true)
	}
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
// commit claims the surviving Steiner points for this net. Topologies
// are committed in the deterministic routing order, so the claim set,
// and with it every later topology, is reproducible.
func (s *searcher) topology(id int32, pins []geom.Pt3, out *netRoute) *steiner.Tree {
	rt := s.rt
	if t := rt.topos[id]; t != nil {
		return t
	}
	pts := s.ptBuf[:0]
	for _, p := range pins {
		pts = append(pts, p.Pt2())
	}
	s.ptBuf = pts
	t := s.steinerB.Build(pts, steiner.Options{
		Blocked: func(p geom.Pt) bool {
			pi := p.Y*rt.nl.W + p.X
			if o := rt.pinOwner[pi]; o != 0 && o != id+1 {
				return true
			}
			o := rt.steinerOwner[pi]
			return o != 0 && o != id+1
		},
	})
	out.built = t
	return t
}

// routeSteinerTree realizes the net's Steiner topology segment by
// segment. Each search is seeded with the net's entire routed
// component at cost zero, so a segment reuses already-routed wires of
// the same net as free trunk and only pays for new metal. It reports
// false — with r reset and the net marked for the greedy fallback —
// when a segment cannot be realized.
func (s *searcher) routeSteinerTree(r *grid.Route, pins []geom.Pt3, id int32, out *netRoute) bool {
	tree := s.topology(id, pins, out)
	if len(tree.Segs) == 0 {
		return false // fallback sentinel
	}
	root := append(s.connBuf[:0], pins[0])
	s.connBuf = root
	for _, seg := range tree.Segs {
		junction := false
		for _, st := range tree.Steiner {
			if st == seg.B {
				junction = true
				break
			}
		}
		target := geom.XYL(seg.B.X, seg.B.Y, 0)
		if !r.Empty() && coversTarget(r, seg.B, junction, s.rt.g.NumLayers) {
			continue // an earlier path already runs through this node
		}
		var path []geom.Pt3
		var err error
		if junction {
			// A Steiner junction is a meeting point of same-net wires,
			// not a terminal: reaching its column on any layer connects
			// the tree without forcing a via stack down to layer 0.
			path, err = s.findPathColumn(r, root, target, id)
		} else {
			path, err = s.findPath(r, root, target, id)
		}
		if err != nil {
			r.Reset()
			r.Net = id
			out.fellBack = true
			return false
		}
		r.AddPathCopy(path)
	}
	return true
}

// coversTarget reports whether the partial route already reaches a
// tree node: the exact layer-0 point for a pin, any layer of the
// node's column for a Steiner junction.
func coversTarget(r *grid.Route, node geom.Pt, junction bool, layers int) bool {
	if !junction {
		return r.HasPoint(geom.XYL(node.X, node.Y, 0))
	}
	for l := 0; l < layers; l++ {
		if r.HasPoint(geom.XYL(node.X, node.Y, l)) {
			return true
		}
	}
	return false
}

// ripUp removes a net's route, cost contributions and occupancy. The
// Route object is recycled for the next route — no caller retains a
// ripped route.
func (rt *Router) ripUp(id int32) {
	r := rt.routes[id]
	if r == nil || r.Empty() {
		return
	}
	rt.revertNetCosts(id)
	rt.g.RemoveRoute(r)
	rt.trackFVPs(r)
	rt.routes[id] = nil
	r.Reset()
	rt.spareRoutes = append(rt.spareRoutes, r)
}
