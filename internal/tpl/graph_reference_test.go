package tpl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// refNewGraph is NewGraph as it was before the dense site index, kept
// verbatim (renamed) as the reference of TestNewGraphMatchesReference.
func refNewGraph(pts []geom.Pt) *Graph {
	g := &Graph{Pts: pts, Adj: make([][]int32, len(pts))}
	byPos := make(map[geom.Pt]int32, len(pts))
	for i, p := range pts {
		byPos[p] = int32(i)
	}
	// Two passes over one flat backing array instead of a per-vertex
	// append: the graph is rebuilt after every routing pass, so the
	// O(V) small slices would dominate steady-state allocation.
	total := 0
	for _, p := range pts {
		for _, off := range ConflictOffsets {
			if _, ok := byPos[p.Add(off.X, off.Y)]; ok {
				total++
			}
		}
	}
	flat := make([]int32, 0, total)
	for i, p := range pts {
		start := len(flat)
		for _, off := range ConflictOffsets {
			if j, ok := byPos[p.Add(off.X, off.Y)]; ok {
				flat = append(flat, j)
			}
		}
		g.Adj[i] = flat[start:len(flat):len(flat)]
	}
	return g
}

// TestNewGraphMatchesReference: the dense and the sparse site index
// build the reference's adjacency exactly — neighbor order, repeated
// points answering with their last index — on clustered points, on
// points at negative and extreme coordinates, and on boxes too large
// for the dense form.
func TestNewGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	origins := []geom.Pt{
		geom.XY(0, 0), geom.XY(-7, -3), geom.XY(math.MaxInt-20, 5), geom.XY(3, math.MinInt+1),
	}
	for trial := 0; trial < 300; trial++ {
		o := origins[trial%len(origins)]
		span := 3 + rng.Intn(12)
		var pts []geom.Pt
		for n := rng.Intn(40); n > 0; n-- {
			pts = append(pts, o.Add(rng.Intn(span), rng.Intn(span)))
		}
		if trial%3 == 0 && len(pts) > 0 {
			// A far outlier forces the sparse index (or, at the extreme
			// origins, a box spanning most of the int range).
			pts = append(pts, o.Add(-1<<30, 1<<30))
		}
		if trial%5 == 0 && len(pts) > 1 {
			pts = append(pts, pts[rng.Intn(len(pts))]) // repeated point
		}
		got, want := NewGraph(pts), refNewGraph(pts)
		for v := range want.Adj {
			if len(want.Adj[v]) == 0 && len(got.Adj[v]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got.Adj[v], want.Adj[v]) {
				t.Fatalf("trial %d vertex %d at %v: adjacency %v, reference %v", trial, v, pts[v], got.Adj[v], want.Adj[v])
			}
		}
		if len(got.Adj) != len(want.Adj) {
			t.Fatalf("trial %d: %d vertices, reference %d", trial, len(got.Adj), len(want.Adj))
		}
	}
}
