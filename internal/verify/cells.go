package verify

import (
	"math"
	"slices"
)

// cellLists maps the cells of a flat grid to short lists of int32
// values: net IDs, via indices or colors. Nearly every occupied cell
// holds a single value, stored inline; the few cells holding several
// (shorts, stacked vias) keep their lists in a side map, which is the
// only map the checker fills on a legal solution's grid.
type cellLists struct {
	one  []int32 // 0: empty; v+1: the single value v; -1: see many
	many map[int][]int32
	buf  [1]int32 // backs the slice at returns for an inline value
}

func newCellLists(cells int) cellLists { return cellLists{one: make([]int32, cells)} }

// add appends v to cell's list unless the list already holds it.
func (l *cellLists) add(cell int, v int32) {
	l.push(cell, v, true)
}

// push appends v to cell's list; with distinct set, a value the list
// already holds is not appended again.
func (l *cellLists) push(cell int, v int32, distinct bool) {
	switch o := l.one[cell]; {
	case o == 0 && v >= 0 && v < math.MaxInt32:
		l.one[cell] = v + 1
	case o == 0:
		l.spill(cell, []int32{v})
	case o > 0:
		if !distinct || o-1 != v {
			l.spill(cell, []int32{o - 1, v})
		}
	default:
		if !distinct || !slices.Contains(l.many[cell], v) {
			l.many[cell] = append(l.many[cell], v)
		}
	}
}

func (l *cellLists) spill(cell int, vs []int32) {
	if l.many == nil {
		l.many = map[int][]int32{}
	}
	l.many[cell] = vs
	l.one[cell] = -1
}

// at returns cell's list in insertion order. An inline value is
// returned in l.buf, so the slice is valid only until the next call of
// at on l.
func (l *cellLists) at(cell int) []int32 {
	switch o := l.one[cell]; {
	case o == 0:
		return nil
	case o > 0:
		l.buf[0] = o - 1
		return l.buf[:]
	default:
		return l.many[cell]
	}
}
