package dvi

import (
	"math/bits"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/tpl"
)

// The exact solve of the TPL-aware DVI problem (§III-E). BuildILP's
// model C1–C8 is the problem of record; this search solves it directly
// on the instance, in place of the paper's Gurobi call, one conflict
// component at a time:
//
//   - one branch per via fixes its original's color (or uncolorable)
//     together with its redundant choice: none, or a candidate and its
//     color;
//   - the via whose original has the fewest colors left goes first
//     (DSATUR), and colors are introduced in the order 0, 1, 2, so no
//     two branches differ by a permutation of the masks;
//   - the bound is the current objective, plus one for each undecided
//     via that can still insert, minus B for each whose original has
//     no color left, minus one for each pair of a matching of clashing
//     vias (two that can never both insert); a walled candidate (one
//     no color is left for once the originals are colored) counts for
//     nothing while every original that could wall it stays colored;
//   - once a branch leaves the undecided vias in several groups that no
//     conflict joins, each group is searched on its own and the best
//     values add up, so independent parts of a component never
//     multiply each other's trees;
//   - the Algorithm 3 heuristic is the starting incumbent, so a capped
//     search is never worse than it.
//
// The objective is the model's: inserted redundant vias minus B per
// uncolorable via.

// ILPOptions bound the exact solve.
type ILPOptions struct {
	// TimeLimit caps wall-clock time; zero means no limit. The clock is
	// read every 1 024 search nodes of a component, and a stop it
	// causes sets Solution.TimedOut.
	TimeLimit time.Duration
	// NodeLimit caps the search nodes of each conflict component; zero
	// means no limit. Unlike TimeLimit it is deterministic.
	NodeLimit int64
}

// bigB is the objective penalty per uncolorable via: larger than any
// number of insertions, so the solve first minimizes uncolorable vias.
const bigB = 1 << 20

// SolveILP solves the TPL-aware DVI problem exactly, or to the limits,
// starting from the Algorithm 3 heuristic's solution as incumbent, so
// the result is never worse than the heuristic even under tight
// limits. The error is always nil.
func (in *Instance) SolveILP(opts ILPOptions) (*Solution, error) {
	s := in.SolveHeuristic(DefaultHeurParams())
	if len(in.Vias) == 0 {
		return s, nil
	}
	x := newExactSearch(in)
	x.nodeLimit = opts.NodeLimit
	if opts.TimeLimit > 0 {
		//sadplint:ignore detclock TimeLimit is the opt-in wall-clock budget and a stop it causes is reported as Solution.TimedOut; NodeLimit is the deterministic one
		x.deadline = time.Now().Add(opts.TimeLimit)
	}
	for _, comp := range x.components() {
		if x.solve(comp, s) {
			s.LimitHit = true
		}
	}
	s.TimedOut = x.timedOut
	s.InsertedCount, s.Uncolorable = 0, 0
	for i, j := range s.Inserted {
		if j >= 0 {
			s.InsertedCount++
		}
		if s.Colors[i] == tpl.Uncolored {
			s.Uncolorable++
		}
	}
	s.DeadVias = len(in.Vias) - s.InsertedCount
	return s, nil
}

// choice is one via's decision: its original's color, its inserted
// candidate (or -1) and that candidate's color.
type choice struct {
	via             int32
	color, ins, red int8
}

// exactSearch holds an instance's conflict structure and the search
// state. A slot is one via site that may hold a colored via: slot
// slot0[i] is via i's original, slot0[i]+1+j its candidate j.
type exactSearch struct {
	in      *Instance
	slot0   []int32 // len(Vias)+1 prefix offsets
	slotVia []int32
	// The slots of other vias within the same-color pitch of slot s, on
	// its layer, are adj[adjStart[s]:adjStart[s+1]]; the candidate
	// slots of other vias on the very site of candidate slot s (C2) are
	// same[sameStart[s]:sameStart[s+1]]. The vias that some slot of via
	// i is within pitch of are viaAdj[viaAdjStart[i]:viaAdjStart[i+1]];
	// they include every via whose candidate shares a site with one of
	// i's, since a candidate lies one step from its own original.
	adjStart, adj       []int32
	sameStart, same     []int32
	viaAdjStart, viaAdj []int32
	// The vias that can never insert together with via i, both
	// originals colored, are clash[clashStart[i]:clashStart[i+1]]:
	// every pair of their candidates either shares a site or puts four
	// vias pairwise within pitch, which three masks cannot color.
	clashStart, clash []int32
	// walled[s] is set for a candidate slot that no color is left for
	// once every original is colored: two originals within pitch of
	// each other, of the slot and of its own via's original make a
	// four-clique with the two.
	walled []bool
	// degree[i] counts the conflicts of via i's slots: the DSATUR tie
	// break.
	degree []int32

	// Search state, indexed by slot or via. ban[s] holds the colors of
	// decided vias within pitch of slot s; blocked[s] counts decided
	// redundant vias on candidate slot s's site. The trail records each
	// change as slot<<2 | color, or slot<<2 | 3 for a block.
	ban     []uint8
	blocked []int32
	trail   []int32
	decided []bool
	// uncolored counts the decided vias left uncolorable: while one
	// is, a walled slot may still take a color.
	uncolored int
	// maxColor is the highest color in use (-1 for none): the next
	// branch may introduce maxColor+1, no higher.
	maxColor int8

	// Stacks shared by the nested searches, each cut back to its length
	// on entry when a search returns. best holds each open search's
	// best assignment followed by the assignment its current branch is
	// building; groups holds the members of each open node's groups,
	// and groupEnd the end of each group in groups.
	best     []choice
	groups   []int32
	groupEnd []int32
	// mark holds per-via scratch marks; a pass takes fresh values from
	// nextStamp, so no pass clears what an earlier one left.
	mark  []uint32
	stamp uint32

	nodeLimit int64
	deadline  time.Time
	nodes     int64
	timedOut  bool
}

// newExactSearch indexes the instance's slots by site and lists each
// slot's conflicts.
func newExactSearch(in *Instance) *exactSearch {
	n := len(in.Vias)
	x := &exactSearch{in: in, slot0: make([]int32, n+1)}
	for i := range in.Vias {
		x.slot0[i+1] = x.slot0[i] + 1 + int32(len(in.Feas[i]))
	}
	ns := int(x.slot0[n])
	x.slotVia = make([]int32, ns)
	pos := make([]geom.Pt, ns)
	lo, hi := in.Vias[0].Base, in.Vias[0].Base
	for i, v := range in.Vias {
		s := x.slot0[i]
		x.slotVia[s], pos[s] = int32(i), v.Pos()
		for j, c := range in.Feas[i] {
			x.slotVia[s+1+int32(j)], pos[s+1+int32(j)] = int32(i), c
		}
		for k := s; k < x.slot0[i+1]; k++ {
			p := pos[k]
			lo = geom.XYL(min(lo.X, p.X), min(lo.Y, p.Y), min(lo.Layer, v.Layer()))
			hi = geom.XYL(max(hi.X, p.X), max(hi.Y, p.Y), max(hi.Layer, v.Layer()))
		}
	}
	// Group the slots by site over the bounding box, padded by the
	// pitch so that every conflict partner's site has a cell.
	const pad = 2
	w, h := hi.X-lo.X+1+2*pad, hi.Y-lo.Y+1+2*pad
	cell := func(vl int, p geom.Pt) int {
		return ((vl-lo.Layer)*h+p.Y-lo.Y+pad)*w + p.X - lo.X + pad
	}
	start := make([]int32, (hi.Layer-lo.Layer+1)*w*h+1)
	for s, p := range pos {
		start[cell(in.Vias[x.slotVia[s]].Layer(), p)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	next := slices.Clone(start[:len(start)-1])
	at := make([]int32, ns)
	for s, p := range pos {
		c := cell(in.Vias[x.slotVia[s]].Layer(), p)
		at[next[c]] = int32(s)
		next[c]++
	}

	x.adjStart = make([]int32, ns+1)
	x.sameStart = make([]int32, ns+1)
	x.blocked = make([]int32, ns)
	x.degree = make([]int32, n)
	for s, p := range pos {
		v := x.slotVia[s]
		vl := in.Vias[v].Layer()
		for _, off := range tpl.ConflictOffsets {
			c := cell(vl, p.Add(off.X, off.Y))
			for _, t := range at[start[c]:start[c+1]] {
				if x.slotVia[t] != v {
					x.adj = append(x.adj, t)
				}
			}
		}
		x.adjStart[s+1] = int32(len(x.adj))
		x.degree[v] += x.adjStart[s+1] - x.adjStart[s]
		if int32(s) == x.slot0[v] {
			x.sameStart[s+1] = int32(len(x.same))
			continue
		}
		c := cell(vl, p)
		for _, t := range at[start[c]:start[c+1]] {
			switch {
			case x.slotVia[t] == v:
			case t == x.slot0[x.slotVia[t]]:
				// Another via's original sits on the site: a redundant
				// via there would collide with it.
				x.blocked[s] = 1
			default:
				x.same = append(x.same, t)
			}
		}
		x.sameStart[s+1] = int32(len(x.same))
	}

	x.mark = make([]uint32, n)
	x.viaAdjStart = make([]int32, n+1)
	for v := range n {
		x.stamp++
		x.mark[v] = x.stamp
		for s := x.slot0[v]; s < x.slot0[v+1]; s++ {
			for _, t := range x.adj[x.adjStart[s]:x.adjStart[s+1]] {
				x.addViaAdj(x.slotVia[t])
			}
		}
		x.viaAdjStart[v+1] = int32(len(x.viaAdj))
	}
	x.walled = make([]bool, ns)
	for s := range int32(ns) {
		v := x.slotVia[s]
		if s != x.slot0[v] {
			x.walled[s] = x.isWalled(s, pos)
		}
	}
	x.clashStart = make([]int32, n+1)
	for v := range int32(n) {
		for _, w := range x.viaAdj[x.viaAdjStart[v]:x.viaAdjStart[v+1]] {
			if x.clashes(v, w) {
				x.clash = append(x.clash, w)
			}
		}
		x.clashStart[v+1] = int32(len(x.clash))
	}

	x.ban = make([]uint8, ns)
	x.decided = make([]bool, n)
	return x
}

// addViaAdj lists via w beside the via being indexed, once.
func (x *exactSearch) addViaAdj(w int32) {
	if x.mark[w] != x.stamp {
		x.mark[w] = x.stamp
		x.viaAdj = append(x.viaAdj, w)
	}
}

// isWalled reports whether candidate slot s and its via's original
// form a four-clique with two other originals.
func (x *exactSearch) isWalled(s int32, pos []geom.Pt) bool {
	o := x.slot0[x.slotVia[s]]
	nb := x.adj[x.adjStart[s]:x.adjStart[s+1]]
	for i, t := range nb {
		if t != x.slot0[x.slotVia[t]] || !tpl.Conflict(pos[t], pos[o]) {
			continue
		}
		for _, u := range nb[i+1:] {
			if u == x.slot0[x.slotVia[u]] && tpl.Conflict(pos[u], pos[o]) && tpl.Conflict(pos[u], pos[t]) {
				return true
			}
		}
	}
	return false
}

// clashes reports whether vias v and w, both with candidates, can
// never both insert while both originals are colored.
func (x *exactSearch) clashes(v, w int32) bool {
	fv, fw := x.in.Feas[v], x.in.Feas[w]
	if len(fv) == 0 || len(fw) == 0 {
		return false
	}
	ov, ow := x.in.Vias[v].Pos(), x.in.Vias[w].Pos()
	for j, a := range fv {
		if x.blocked[x.slot0[v]+1+int32(j)] > 0 {
			continue
		}
		for k, b := range fw {
			if a == b || x.blocked[x.slot0[w]+1+int32(k)] > 0 {
				continue
			}
			if !tpl.Conflict(ov, ow) || !tpl.Conflict(ov, b) || !tpl.Conflict(a, ow) || !tpl.Conflict(a, b) {
				return false
			}
		}
	}
	return true
}

// components partitions the vias into conflict components: two vias
// interact when a slot of one is within pitch of a slot of the other.
// Each component lists its vias in increasing order, and the
// components come in the order of their lowest via.
func (x *exactSearch) components() [][]int32 {
	var out [][]int32
	x.stamp++
	for v := range int32(len(x.in.Vias)) {
		if x.mark[v] == x.stamp {
			continue
		}
		x.mark[v] = x.stamp
		comp := []int32{v}
		for k := 0; k < len(comp); k++ {
			u := comp[k]
			for _, w := range x.viaAdj[x.viaAdjStart[u]:x.viaAdjStart[u+1]] {
				if x.mark[w] != x.stamp {
					x.mark[w] = x.stamp
					comp = append(comp, w)
				}
			}
		}
		slices.Sort(comp)
		out = append(out, comp)
	}
	return out
}

// solve searches one component, writing the best solution found into
// s (which holds the incumbent on entry). It reports whether a limit
// stopped the search before optimality was proven.
func (x *exactSearch) solve(comp []int32, s *Solution) bool {
	x.nodes, x.maxColor = 0, -1
	x.best, x.groups, x.groupEnd = x.best[:0], x.groups[:0], x.groupEnd[:0]
	var incumbent int64
	for _, v := range comp {
		if s.Inserted[v] >= 0 {
			incumbent++
		}
		if s.Colors[v] == tpl.Uncolored {
			incumbent -= bigB
		}
	}
	val, limited := x.search(comp, incumbent)
	if val > incumbent {
		for _, c := range x.best[:len(comp)] {
			s.Colors[c.via], s.Inserted[c.via], s.RedColors[c.via] = c.color, int(c.ins), c.red
		}
	}
	return limited
}

// search decides the vias of set, all undecided and connected by
// conflicts among themselves. It returns the best value they can add
// (one per redundant via, minus B per uncolorable original) when that
// exceeds floor, with the assignment that reaches it left at
// x.best[base:base+len(set)], base being len(x.best) on entry;
// otherwise it returns floor. The second result is true when a limit
// stopped the search; the value is then the best complete one found.
func (x *exactSearch) search(set []int32, floor int64) (int64, bool) {
	x.nodes++
	if x.nodeLimit > 0 && x.nodes > x.nodeLimit {
		return floor, true
	}
	//sadplint:ignore detclock TimeLimit is the opt-in wall-clock budget and a stop it causes is reported as Solution.TimedOut; NodeLimit is the deterministic one
	if !x.deadline.IsZero() && x.nodes%1024 == 0 && time.Now().After(x.deadline) {
		x.timedOut = true
		return floor, true
	}
	v, bound := x.pick(set)
	if bound <= floor {
		return floor, false
	}
	nd := node{base: len(x.best), n: len(set), g0: len(x.groups), ge: len(x.groupEnd)}
	x.best = slices.Grow(x.best, nd.n)[:nd.base+nd.n]
	x.split(set, v)
	x.decided[v] = true

	best, limited := floor, false
	o, mc := x.slot0[v], x.maxColor
	for c := int8(0); c <= min(mc+1, tpl.NumColors-1) && !limited; c++ {
		if x.ban[o]>>c&1 != 0 {
			continue
		}
		mark := len(x.trail)
		x.colorSlot(o, c)
		x.maxColor = max(mc, c)
		best, limited = x.branchRedundant(nd, v, c, 0, best)
		x.maxColor = mc
		x.undoTo(mark)
	}
	// Leaving v's original uncolored costs B and lifts every wall
	// through it, so that branch is bounded with walls off: one for v's
	// own redundant via, plus the bounds of the groups the rest of the
	// set falls into.
	if !limited {
		x.uncolored++
		if 1-bigB+x.groupsBound(nd) > best {
			best, limited = x.branchRedundant(nd, v, tpl.Uncolored, -bigB, best)
		}
		x.uncolored--
	}

	x.decided[v] = false
	x.groups, x.groupEnd = x.groups[:nd.g0], x.groupEnd[:nd.ge]
	x.best = x.best[:nd.base+nd.n]
	return best, limited
}

// node is an open search node's place on the shared stacks: its best
// assignment of its n vias at x.best[base:], and the groups the rest
// of its set falls into at x.groups[g0:], ending at x.groupEnd[ge:].
type node struct{ base, n, g0, ge int }

// branchRedundant tries each redundant-via choice of via v, whose
// original has color c (or none) worth val, then no insertion, and
// returns the best value of the node's set so far.
func (x *exactSearch) branchRedundant(nd node, v int32, c int8, val int64, best int64) (int64, bool) {
	mc := x.maxColor
	for s := x.slot0[v] + 1; s < x.slot0[v+1]; s++ {
		if x.blocked[s] > 0 {
			continue
		}
		ban := x.ban[s]
		if c >= 0 {
			ban |= 1 << c
		}
		for rc := int8(0); rc <= min(mc+1, tpl.NumColors-1); rc++ {
			if ban>>rc&1 != 0 {
				continue
			}
			mark := len(x.trail)
			x.colorSlot(s, rc)
			x.occupy(s)
			x.maxColor = max(mc, rc)
			var limited bool
			best, limited = x.descend(nd, choice{v, c, int8(s - x.slot0[v] - 1), rc}, val+1, best)
			x.maxColor = mc
			x.undoTo(mark)
			if limited {
				return best, true
			}
		}
	}
	return x.descend(nd, choice{v, c, -1, tpl.Uncolored}, val, best)
}

// descend completes a branch of node nd: its via took ch, worth val,
// and each group the rest of its set falls into is searched on its
// own, for no less than the node's best still allows given the groups
// searched before it and the bounds of those after it. A branch that
// beats best becomes the node's best assignment.
func (x *exactSearch) descend(nd node, ch choice, val int64, best int64) (int64, bool) {
	mark := len(x.best)
	x.best = append(x.best, ch)
	ends := x.groupEnd[nd.ge:]
	// rest bounds the groups not yet searched.
	rest := int64(0)
	if len(ends) > 1 {
		rest = x.groupsBound(nd)
		if val+rest <= best {
			x.best = x.best[:mark]
			return best, false
		}
	}
	from := int32(nd.g0)
	for _, to := range ends {
		group := x.groups[from:to]
		from = to
		if len(ends) > 1 {
			_, b := x.pick(group)
			rest -= b
		}
		floor := best - val - rest
		got, limited := x.search(group, floor)
		if limited || got <= floor {
			x.best = x.best[:mark]
			return best, limited
		}
		val += got
	}
	if val > best {
		copy(x.best[nd.base:nd.base+nd.n], x.best[mark:mark+nd.n])
		best = val
	}
	x.best = x.best[:mark]
	return best, false
}

// groupsBound sums the bounds of the groups node nd's set, less its
// via, falls into.
func (x *exactSearch) groupsBound(nd node) int64 {
	var bound int64
	from := int32(nd.g0)
	for _, to := range x.groupEnd[nd.ge:] {
		_, b := x.pick(x.groups[from:to])
		bound += b
		from = to
	}
	return bound
}

// split divides set, less via v, into the groups that no conflict
// joins, appending their members to x.groups and their ends to
// x.groupEnd.
func (x *exactSearch) split(set []int32, v int32) {
	open := x.nextStamp()
	done := x.nextStamp()
	for _, w := range set {
		x.mark[w] = open
	}
	x.mark[v] = done
	for _, w := range set {
		if x.mark[w] != open {
			continue
		}
		x.mark[w] = done
		from := len(x.groups)
		x.groups = append(x.groups, w)
		for k := from; k < len(x.groups); k++ {
			u := x.groups[k]
			for _, y := range x.viaAdj[x.viaAdjStart[u]:x.viaAdjStart[u+1]] {
				if x.mark[y] == open {
					x.mark[y] = done
					x.groups = append(x.groups, y)
				}
			}
		}
		x.groupEnd = append(x.groupEnd, int32(len(x.groups)))
	}
}

// pick returns the via of set to branch on and a bound on the value
// the set can add. The via is the one whose original has the fewest
// colors left, then the one with the most conflicts, then the first.
func (x *exactSearch) pick(set []int32) (int32, int64) {
	// A walled candidate counts for nothing only while every original
	// that walls it will be colored: none is decided uncolored, and
	// none in the set has no color left. A solution that leaves an
	// original with a color left uncolored scores below the bound by
	// the B it costs.
	walls := x.uncolored == 0
	for _, v := range set {
		if x.ban[x.slot0[v]] == 7 {
			walls = false
			break
		}
	}
	best, bestLeft := int32(-1), 4
	var bound int64
	open := x.nextStamp()
	for _, v := range set {
		o := x.slot0[v]
		free := ^x.ban[o] & 7
		if free == 0 {
			bound -= bigB
		}
		for s := o + 1; s < x.slot0[v+1]; s++ {
			if x.blocked[s] > 0 || walls && x.walled[s] {
				continue
			}
			// The redundant via needs a color of its own; beside a
			// colored original, one the original does not take.
			if rfree := ^x.ban[s] & 7; rfree != 0 && (free == 0 || bits.OnesCount8(free|rfree) >= 2) {
				bound++
				if free != 0 {
					x.mark[v] = open
				}
				break
			}
		}
		if n := bits.OnesCount8(free); n < bestLeft || n == bestLeft && x.degree[v] > x.degree[best] {
			best, bestLeft = v, n
		}
	}
	// Of two clashing vias at most one inserts, so each pair of a
	// matching of clashes costs the bound one. Leaving an original
	// uncolored instead costs B, more than any number of insertions.
	for _, v := range set {
		if x.mark[v] != open {
			continue
		}
		for _, w := range x.clash[x.clashStart[v]:x.clashStart[v+1]] {
			if x.mark[w] == open {
				x.mark[v], x.mark[w] = 0, 0
				bound--
				break
			}
		}
	}
	return best, bound
}

// nextStamp returns a mark value that no via holds.
func (x *exactSearch) nextStamp() uint32 {
	if x.stamp >= 1<<31 {
		clear(x.mark)
		x.stamp = 0
	}
	x.stamp++
	return x.stamp
}

// colorSlot bans color c on every slot of an undecided via within
// pitch of slot s.
func (x *exactSearch) colorSlot(s int32, c int8) {
	bit := uint8(1) << c
	for _, t := range x.adj[x.adjStart[s]:x.adjStart[s+1]] {
		if x.ban[t]&bit != 0 || x.decided[x.slotVia[t]] {
			continue
		}
		x.ban[t] |= bit
		x.trail = append(x.trail, t<<2|int32(c))
	}
}

// occupy blocks the candidate slots of undecided vias on candidate
// slot s's site.
func (x *exactSearch) occupy(s int32) {
	for _, t := range x.same[x.sameStart[s]:x.sameStart[s+1]] {
		if x.decided[x.slotVia[t]] {
			continue
		}
		x.blocked[t]++
		x.trail = append(x.trail, t<<2|3)
	}
}

// undoTo rolls the trail back to length mark.
func (x *exactSearch) undoTo(mark int) {
	for len(x.trail) > mark {
		e := x.trail[len(x.trail)-1]
		x.trail = x.trail[:len(x.trail)-1]
		if e&3 == 3 {
			x.blocked[e>>2]--
		} else {
			x.ban[e>>2] &^= 1 << (e & 3)
		}
	}
}
