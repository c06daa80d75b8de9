package router

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dvi"
	"repro/internal/geom"
	"repro/internal/tpl"
)

// The batch engine routes a sequence of nets in order — the first pass
// in HPWL order, each congestion round of phase 2 and of the TPL phase
// in net-id order, an FVP victim or color fix-up net alone — with the
// searches of consecutive, far-apart nets run concurrently, and every
// output byte-identical to routing them one at a time.
//
// A batch is a run of consecutive nets whose predicted footprints are
// pairwise disjoint. Every net of the batch is routed against the
// state before the batch (the routing phase writes no shared state),
// then the batch is committed serially in its order. Net j commits its
// speculative route only if everything the route read — its read rect
// — misses what the nets committed before it in the batch wrote, their
// write rects. Otherwise the route is dropped and the net routed again
// at its turn. Either way the committed route read exactly the cells
// it would have read in serial order, so it is the serial route.

// batchCap bounds the nets of one batch.
const batchCap = 8

// helperMinArea is the predicted search area, in grid cells, at which
// a batch is worth handing to helper goroutines. A batch's predicted
// read rects are pairwise disjoint, so their total never exceeds the
// grid's area: jobs on grids smaller than 64×64 never wake a helper.
// Tests lower it to drive helpers on small circuits.
var helperMinArea = 64 * 64

// planBlind makes planBatch take batchCap nets at a time whatever
// their predicted footprints, leaving every overlap to the validation.
// Tests set it.
var planBlind = false

// spillRadius is the farthest, in Chebyshev distance, a commit changes
// what a search reads from its route's points and Steiner claims:
// occupancy at the points themselves, AMC one planar step away, BDC at
// a via's DVICs, CDC at the DVICs of those DVICs, TPLC at the
// same-color conflict offsets, and in the TPL phase the FVP blocks,
// which a via changes at every site within tpl.ProbeRadius (the search
// asks WouldCreateFVP, which reads that far beyond its window).
var spillRadius = func() int {
	cheb := func(p geom.Pt) int { return max(p.X, -p.X, p.Y, -p.Y) }
	r := 0
	for _, d := range geom.PlanarDirs {
		r = max(r, cheb(geom.Pt{}.Step(d))) // AMC
	}
	for _, o := range dvi.DVICOffsets {
		r = max(r, 2*cheb(o)) // CDC, a DVIC of a DVIC
	}
	for _, o := range tpl.ConflictOffsets {
		r = max(r, cheb(o)) // TPLC
	}
	return max(r, tpl.ProbeRadius) // FVP blocks
}()

// batchSlot is one net of a batch: its predicted footprint while the
// batch is planned, its outcome, and once committed its write rect.
type batchSlot struct {
	id    int32
	read  geom.Rect
	write geom.Rect
	res   netRoute
}

// routeInOrder routes and commits the nets of ids, none of them
// currently routed, in order, a batch at a time. It polls Config.Cancel
// before each batch and returns ErrCanceled with id −1. In the TPL
// phase a net the FVP blocks wall in is routed once more, at its turn,
// without them. On a routing error it returns the failing net and the
// error, every earlier net committed.
func (rt *Router) routeInOrder(ids []int32) (int32, error) {
	for len(ids) > 0 {
		if err := rt.checkCancel(); err != nil {
			return -1, err
		}
		batch := rt.planBatch(ids)
		ids = ids[len(batch):]
		rt.routeBatch(batch)
		for j := range batch {
			res := &batch[j].res
			if !readIsClean(res.read, batch[:j]) {
				rt.stats.Redone++
				r := res.r
				r.Reset()
				rt.searchers[0].route(res.id, r, res)
			}
			if err := rt.commit(res); err != nil {
				if !rt.tplPhase || rt.ignoreBlocks {
					return res.id, err
				}
				// Any FVP the unblocked route creates enters the FVP
				// set and is resolved by moving other nets instead.
				rt.ignoreBlocks = true
				rt.searchers[0].route(res.id, rt.takeRoute(), res)
				err = rt.commit(res)
				rt.ignoreBlocks = false
				if err != nil {
					return res.id, err
				}
			}
			batch[j].write = rt.writeRect(res)
		}
		if len(batch) > 1 {
			rt.stats.BatchedNets += len(batch)
		}
	}
	return -1, nil
}

// planBatch takes the longest prefix of ids, up to batchCap nets,
// whose predicted footprints are pairwise disjoint: a net is predicted
// to read its pins' box grown by searchMargin, and to write that box
// grown by spillRadius more. Each slot gets a Route to fill.
func (rt *Router) planBatch(ids []int32) []batchSlot {
	clip := rt.g.Bounds()
	n := 0
	for _, id := range ids {
		if n == batchCap {
			break
		}
		box := geom.BoundingRect(rt.nl.Nets[id].Pins)
		read := box.Expand(searchMargin, clip)
		write := box.Expand(searchMargin+spillRadius, clip)
		disjoint := true
		for _, s := range rt.slots[:n] {
			if overlaps(read, s.write) || overlaps(s.read, write) {
				disjoint = false
				break
			}
		}
		if !disjoint && !planBlind {
			break
		}
		rt.slots[n] = batchSlot{id: id, read: read, write: write}
		rt.slots[n].res.r = rt.takeRoute()
		n++
	}
	return rt.slots[:n]
}

// readIsClean reports whether a read rect misses the write rects of
// every committed slot.
func readIsClean(read geom.Rect, committed []batchSlot) bool {
	for _, s := range committed {
		if overlaps(read, s.write) {
			return false
		}
	}
	return true
}

func overlaps(a, b geom.Rect) bool { return !a.Intersect(b).Empty() }

// writeRect bounds every cell the commit of res wrote: the route's
// points and the Steiner points it claimed, grown by spillRadius.
func (rt *Router) writeRect(res *netRoute) geom.Rect {
	w := res.box
	if t := res.built; t != nil {
		for _, s := range t.Steiner {
			w = w.AddPt(s)
		}
	}
	return w.Expand(spillRadius, rt.g.Bounds())
}

// routeBatch fills every slot's outcome. A batch whose predicted
// search area pays for a wake-up is drained by the calling goroutine
// together with parked helpers; any other runs on the caller alone.
// The outcomes are the same either way.
func (rt *Router) routeBatch(batch []batchSlot) {
	if len(batch) > 1 && worthHelpers(batch) && rt.crew.start(rt) {
		rt.crew.run(rt, batch)
		return
	}
	s := rt.searchers[0]
	for i := range batch {
		s.route(batch[i].id, batch[i].res.r, &batch[i].res)
	}
}

func worthHelpers(batch []batchSlot) bool {
	area := 0
	for _, s := range batch {
		area += s.read.Area()
	}
	return area >= helperMinArea
}

// crew is a run's helper goroutines. They start on the first batch
// worth handing off, park on wake between batches, and are joined by
// stopHelpers before Run returns. Their searchers (Router.searchers[1:])
// outlive them in the arena's router.
type crew struct {
	// wake carries one token per helper a batch wants; its buffer
	// holds a token for every helper, so waking them never blocks.
	// stopHelpers closes it.
	wake   chan struct{}
	n      int          // helpers running
	batch  []batchSlot  // the batch being drained
	next   atomic.Int32 // next unclaimed slot of batch
	done   sync.WaitGroup
	exited sync.WaitGroup
	// handoffs counts batches handed to helpers since New (tests).
	handoffs int
}

// start makes sure the helpers run, reporting false when GOMAXPROCS
// leaves no room for one.
func (c *crew) start(rt *Router) bool {
	if c.wake != nil {
		return true
	}
	k := min(runtime.GOMAXPROCS(0), batchCap) - 1
	if k <= 0 {
		return false
	}
	for len(rt.searchers) <= k {
		rt.searchers = append(rt.searchers, rt.newSearcher())
	}
	c.wake = make(chan struct{}, k)
	c.n = k
	c.exited.Add(k)
	for _, s := range rt.searchers[1 : k+1] {
		go c.help(s, c.wake)
	}
	return true
}

// run drains the batch on the calling goroutine and as many helpers as
// the batch has nets beyond the first. A helper's panic is re-raised
// here once the batch is drained.
func (c *crew) run(rt *Router, batch []batchSlot) {
	c.handoffs++
	c.batch = batch
	c.next.Store(0)
	h := min(c.n, len(batch)-1)
	c.done.Add(h)
	for i := 0; i < h; i++ {
		c.wake <- struct{}{}
	}
	c.drain(rt.searchers[0])
	c.done.Wait()
	c.batch = nil
	for _, s := range rt.searchers[1 : c.n+1] {
		if p := s.panicked; p != nil {
			s.panicked = nil
			panic(p)
		}
	}
}

// drain routes unclaimed slots of the current batch until none is left.
func (c *crew) drain(s *searcher) {
	for {
		i := int(c.next.Add(1)) - 1
		if i >= len(c.batch) {
			return
		}
		sl := &c.batch[i]
		s.route(sl.id, sl.res.r, &sl.res)
	}
}

// help is a helper goroutine's loop: one drain per wake token.
func (c *crew) help(s *searcher, wake <-chan struct{}) {
	defer c.exited.Done()
	for range wake {
		c.drainGuarded(s)
		c.done.Done()
	}
}

func (c *crew) drainGuarded(s *searcher) {
	defer func() {
		if p := recover(); p != nil {
			s.panicked = p
		}
	}()
	c.drain(s)
}

// stopHelpers joins the helpers, if any started; a helper still
// draining a batch the caller abandoned by panicking finishes it first.
func (rt *Router) stopHelpers() {
	c := &rt.crew
	if c.wake != nil {
		close(c.wake)
		c.exited.Wait()
		for _, s := range rt.searchers[1 : c.n+1] {
			s.panicked = nil
		}
		c.wake, c.n, c.batch = nil, 0, nil
	}
}
