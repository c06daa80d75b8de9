package grid

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Occupancy tracks which nets occupy each grid point of one routing
// layer. During negotiated-congestion routing multiple nets may share a
// point (an overflow); the rip-up-and-reroute loop then needs to know
// exactly which nets those are, so each cell keeps its occupant list.
// A net occupying a point twice (a route crossing itself at a junction)
// is stored once per occurrence and removed symmetrically.
//
// Each cell is one packed word, so the search's congestion query is a
// single load: 0 for an empty cell, net+1 for exactly one occupant, and
// −(slot+1) for two or more entries, whose list is side[slot]. Side
// lists behave exactly like a per-cell slice: Add appends, Remove swaps
// the first match with the last entry. Their order is an output — the
// rip-up loops pick a victim by position — so a cell that drops back to
// one entry keeps the survivor and returns its slot to the free list.
type Occupancy struct {
	w, h  int
	cells []int32
	side  [][]int32 // occupant lists of cells holding ≥2 entries
	free  []int32   // side slots not attached to a cell
	used  int       // number of non-empty cells
	// over tracks the cells currently overflowing (shared by ≥2
	// distinct nets), maintained incrementally by Add/Remove. It makes
	// the congestion query O(overflows) instead of O(w·h) — the
	// negotiation loop polls for congestion once per round, and the TPL
	// rip-up loop once per iteration, almost always finding none.
	over map[int32]struct{}
}

// NewOccupancy returns an empty occupancy over a w×h grid.
func NewOccupancy(w, h int) *Occupancy {
	return &Occupancy{w: w, h: h, cells: make([]int32, w*h), over: map[int32]struct{}{}}
}

func (o *Occupancy) idx(p geom.Pt) int { return p.Y*o.w + p.X }

// takeSlot attaches a free side list, reusing retired storage.
func (o *Occupancy) takeSlot() int32 {
	if n := len(o.free); n > 0 {
		s := o.free[n-1]
		o.free = o.free[:n-1]
		return s
	}
	o.side = append(o.side, nil)
	return int32(len(o.side) - 1)
}

// Add records net occupying point p.
func (o *Occupancy) Add(p geom.Pt, net int32) {
	i := o.idx(p)
	switch v := o.cells[i]; {
	case v == 0:
		o.cells[i] = net + 1
		o.used++
	case v > 0:
		s := o.takeSlot()
		o.side[s] = append(o.side[s], v-1, net)
		o.cells[i] = -(s + 1)
		if v-1 != net {
			o.over[int32(i)] = struct{}{}
		}
	default:
		// The list overflows now iff it did before or net differs from
		// its first entry; re-marking a marked cell is a no-op.
		s := -v - 1
		if net != o.side[s][0] {
			o.over[int32(i)] = struct{}{}
		}
		o.side[s] = append(o.side[s], net)
	}
}

// Remove removes one occurrence of net at p. It panics if the net does
// not occupy the point — that would mean route bookkeeping has
// diverged from the grid.
func (o *Occupancy) Remove(p geom.Pt, net int32) {
	i := o.idx(p)
	switch v := o.cells[i]; {
	case v > 0:
		if v == net+1 {
			o.cells[i] = 0
			o.used--
			return
		}
	case v < 0:
		s := -v - 1
		list := o.side[s]
		for j, n := range list {
			if n != net {
				continue
			}
			list[j] = list[len(list)-1]
			list = list[:len(list)-1]
			if len(list) == 1 {
				o.cells[i] = list[0] + 1
				o.side[s] = list[:0]
				o.free = append(o.free, s)
				delete(o.over, int32(i))
			} else {
				o.side[s] = list
				if !overflowing(list) {
					delete(o.over, int32(i))
				}
			}
			return
		}
	}
	panic(fmt.Sprintf("grid: Remove(%v, net %d): net not present", p, net))
}

// overflowing reports whether a side list holds two distinct nets.
func overflowing(list []int32) bool {
	for _, n := range list[1:] {
		if n != list[0] {
			return true
		}
	}
	return false
}

// Count returns the number of occupants at p (with multiplicity).
func (o *Occupancy) Count(p geom.Pt) int {
	switch v := o.cells[o.idx(p)]; {
	case v == 0:
		return 0
	case v > 0:
		return 1
	default:
		return len(o.side[-v-1])
	}
}

// AppendNets appends the occupant list at p to dst, in list order, and
// returns the extended slice. Callers on hot paths pass a recycled
// buffer (dst[:0]).
func (o *Occupancy) AppendNets(dst []int32, p geom.Pt) []int32 {
	switch v := o.cells[o.idx(p)]; {
	case v == 0:
		return dst
	case v > 0:
		return append(dst, v-1)
	default:
		return append(dst, o.side[-v-1]...)
	}
}

// CountOther returns the number of occupants at p belonging to nets
// other than net, with multiplicity. It is the hot-path accessor of the
// router's congestion cost: one load for an empty or singly occupied
// cell, a side-list walk only where nets already overlap.
//
//sadplint:hotpath congestion cost of every relaxed search edge
func (o *Occupancy) CountOther(p geom.Pt, net int32) int {
	v := o.cells[o.idx(p)]
	if v >= 0 {
		if v == 0 || v == net+1 {
			return 0
		}
		return 1
	}
	k := 0
	for _, n := range o.side[-v-1] {
		if n != net {
			k++
		}
	}
	return k
}

// Occupied reports whether any net occupies p.
func (o *Occupancy) Occupied(p geom.Pt) bool { return o.cells[o.idx(p)] != 0 }

// OccupiedByOther reports whether a net other than net occupies p.
func (o *Occupancy) OccupiedByOther(p geom.Pt, net int32) bool {
	v := o.cells[o.idx(p)]
	if v >= 0 {
		return v != 0 && v != net+1
	}
	for _, n := range o.side[-v-1] {
		if n != net {
			return true
		}
	}
	return false
}

// Has reports whether the given net occupies p.
func (o *Occupancy) Has(p geom.Pt, net int32) bool {
	v := o.cells[o.idx(p)]
	if v >= 0 {
		return v == net+1
	}
	for _, n := range o.side[-v-1] {
		if n == net {
			return true
		}
	}
	return false
}

// Overflow reports whether two or more distinct nets share p.
func (o *Occupancy) Overflow(p geom.Pt) bool {
	v := o.cells[o.idx(p)]
	return v < 0 && overflowing(o.side[-v-1])
}

// Overflows calls fn for every point where distinct nets overlap, in
// row-major order. It scans the whole grid: the independent reference
// for the incremental overflow set (see OverflowIdxs), kept for
// cross-checking.
func (o *Occupancy) Overflows(fn func(geom.Pt)) {
	for y := 0; y < o.h; y++ {
		for x := 0; x < o.w; x++ {
			p := geom.XY(x, y)
			if o.Overflow(p) {
				fn(p)
			}
		}
	}
}

// OverflowCount returns the number of overflowing cells, O(1).
func (o *Occupancy) OverflowCount() int { return len(o.over) }

// OverflowIdxs returns the dense indices of all overflowing cells in
// ascending (row-major) order — the same order Overflows visits them —
// from the incrementally maintained set.
func (o *Occupancy) OverflowIdxs() []int32 {
	if len(o.over) == 0 {
		return nil
	}
	out := make([]int32, 0, len(o.over))
	for i := range o.over {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// UsedCells returns the number of occupied grid points.
func (o *Occupancy) UsedCells() int { return o.used }

// Clear empties every cell in place and returns every side list to the
// free list with its storage — the point of reusing an Occupancy.
func (o *Occupancy) Clear() {
	clear(o.cells)
	o.free = o.free[:0]
	for s := len(o.side) - 1; s >= 0; s-- {
		o.side[s] = o.side[s][:0]
		o.free = append(o.free, int32(s))
	}
	o.used = 0
	clear(o.over)
}
