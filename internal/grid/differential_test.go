package grid

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

// occupancyPair drives the packed Occupancy and its reference with the
// same operations and compares every answer.
type occupancyPair struct {
	w, h int
	got  *Occupancy
	want *refOccupancy
	buf  []int32
}

func newOccupancyPair(w, h int) *occupancyPair {
	return &occupancyPair{w: w, h: h, got: NewOccupancy(w, h), want: newRefOccupancy(w, h)}
}

// remove applies Remove to both and reports whether they agreed on
// panicking (a net absent from the cell).
func (op *occupancyPair) remove(p geom.Pt, net int32) (agree bool) {
	panics := func(fn func()) (did bool) {
		defer func() { did = recover() != nil }()
		fn()
		return false
	}
	return panics(func() { op.got.Remove(p, net) }) == panics(func() { op.want.Remove(p, net) })
}

// check compares every query at every cell for every net in [0, nets)
// and returns a description of the first difference, or "".
func (op *occupancyPair) check(nets int32) string {
	g, w := op.got, op.want
	for y := 0; y < op.h; y++ {
		for x := 0; x < op.w; x++ {
			p := geom.XY(x, y)
			op.buf = g.AppendNets(op.buf[:0], p)
			if !slices.Equal(op.buf, w.Nets(p)) {
				return "AppendNets"
			}
			if g.Count(p) != w.Count(p) || g.Occupied(p) != w.Occupied(p) || g.Overflow(p) != w.Overflow(p) {
				return "Count/Occupied/Overflow"
			}
			for net := int32(0); net < nets; net++ {
				if g.CountOther(p, net) != w.CountOther(p, net) ||
					g.OccupiedByOther(p, net) != w.OccupiedByOther(p, net) ||
					g.Has(p, net) != w.Has(p, net) {
					return "CountOther/OccupiedByOther/Has"
				}
			}
		}
	}
	if g.UsedCells() != w.UsedCells() || g.OverflowCount() != w.OverflowCount() ||
		!slices.Equal(g.OverflowIdxs(), w.OverflowIdxs()) {
		return "UsedCells/OverflowCount/OverflowIdxs"
	}
	var a, b []geom.Pt
	g.Overflows(func(p geom.Pt) { a = append(a, p) })
	w.Overflows(func(p geom.Pt) { b = append(b, p) })
	if !slices.Equal(a, b) {
		return "Overflows"
	}
	return ""
}

// TestOccupancyMatchesReference: random Add/Remove/Clear sequences,
// clustered on few cells and nets so shared cells, double adds of one
// net and cells dropping back to one occupant are common. Every query
// — AppendNets order included — must equal the reference's.
func TestOccupancyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 80; trial++ {
		w, h := 1+rng.Intn(5), 1+rng.Intn(5)
		const nets = 4
		op := newOccupancyPair(w, h)
		type occAt struct {
			p   geom.Pt
			net int32
		}
		var live []occAt
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				op.got.Clear()
				op.want.Clear()
				live = live[:0]
			case r == 1:
				// Remove of a net that may be absent: both panic or neither.
				if !op.remove(geom.XY(rng.Intn(w), rng.Intn(h)), int32(rng.Intn(nets))) {
					t.Fatalf("trial %d step %d: Remove panics differ", trial, step)
				}
				live = live[:0]
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						for _, n := range op.want.Nets(geom.XY(x, y)) {
							live = append(live, occAt{geom.XY(x, y), n})
						}
					}
				}
			case len(live) == 0 || r < 12:
				p, net := geom.XY(rng.Intn(w), rng.Intn(h)), int32(rng.Intn(nets))
				op.got.Add(p, net)
				op.want.Add(p, net)
				live = append(live, occAt{p, net})
			default:
				i := rng.Intn(len(live))
				if !op.remove(live[i].p, live[i].net) {
					t.Fatalf("trial %d step %d: Remove of a present net panicked", trial, step)
				}
				live = append(live[:i], live[i+1:]...)
			}
			if d := op.check(nets); d != "" {
				t.Fatalf("trial %d step %d: %s differs from the reference", trial, step, d)
			}
		}
	}
}

// FuzzOccupancy decodes bytes into an operation sequence on a grid of
// at most 6×6 cells with at most 5 nets and checks the packed
// occupancy against the reference after every operation. The first two
// bytes pick the grid; each later pair is one operation: Add, Remove
// (of any net, present or not) or Clear.
func FuzzOccupancy(f *testing.F) {
	f.Add([]byte{3, 3, 0, 4, 4, 4, 8, 4, 2, 4, 6, 4})
	f.Add([]byte{5, 5, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w, h := 1+int(data[0])%6, 1+int(data[1])%6
		const nets = 5
		op := newOccupancyPair(w, h)
		for i := 2; i+1 < len(data); i += 2 {
			kind, net := data[i]%4, int32(data[i]/4)%nets
			c := int(data[i+1]) % (w * h)
			p := geom.XY(c%w, c/w)
			switch kind {
			case 0, 1:
				op.got.Add(p, net)
				op.want.Add(p, net)
			case 2:
				if !op.remove(p, net) {
					t.Fatalf("op %d: Remove(%v, %d) panics differ", i/2, p, net)
				}
			default:
				op.got.Clear()
				op.want.Clear()
			}
			if d := op.check(nets); d != "" {
				t.Fatalf("op %d: %s differs from the reference", i/2, d)
			}
		}
	})
}

// compareRoutes returns a description of the first answer on which the
// route and its reference (built from the same Paths) differ, or "".
func compareRoutes(got *Route, want *refRoute) string {
	if !slices.Equal(got.PointList(), want.PointList()) {
		return "PointList"
	}
	if !slices.Equal(got.ViaList(), want.ViaList()) {
		return "ViaList"
	}
	if got.Wirelength() != want.Wirelength() || got.NumVias() != want.NumVias() || got.Empty() != want.Empty() {
		return "Wirelength/NumVias/Empty"
	}
	arms := got.ArmList()
	if len(arms) != len(got.PointList()) {
		return "ArmList length"
	}
	for i, p := range got.PointList() {
		if arms[i] != want.ArmMask(p) {
			return "ArmList"
		}
		// The point and its six neighbors, most of them absent.
		for _, q := range []geom.Pt3{p, p.Step(geom.East), p.Step(geom.West), p.Step(geom.North),
			p.Step(geom.South), p.Step(geom.Up), p.Step(geom.Down)} {
			if got.HasPoint(q) != want.HasPoint(q) || got.ArmMask(q) != want.ArmMask(q) ||
				!reflect.DeepEqual(got.MetalDirs(q), want.MetalDirs(q)) {
				return "HasPoint/ArmMask/MetalDirs"
			}
			for _, d := range geom.PlanarDirs {
				if got.HasArm(q, d) != want.HasArm(q, d) {
					return "HasArm"
				}
			}
		}
	}
	// Connectivity of every pair of path endpoints, and of all of them
	// at once plus a point the route may not cover.
	var pins []geom.Pt3
	for _, path := range got.Paths {
		if len(path) > 0 {
			pins = append(pins, path[0], path[len(path)-1])
		}
	}
	for i := 0; i+1 < len(pins); i++ {
		pair := pins[i : i+2]
		if got.Connected(pair) != want.Connected(pair) {
			return "Connected(pair)"
		}
	}
	if got.Connected(pins) != want.Connected(pins) {
		return "Connected(all)"
	}
	if len(pins) > 0 {
		extra := append(slices.Clip(pins), pins[0].Step(geom.North))
		if got.Connected(extra) != want.Connected(extra) {
			return "Connected(extra)"
		}
	}
	if got.Connected(nil) != want.Connected(nil) {
		return "Connected(nil)"
	}
	return ""
}

// randomRoutePaths builds unit-step paths on a small grid that exercise
// what rebuild must deduplicate: self-crossings and re-traversed
// segments (random walks on few cells), via stacks (runs of Up/Down
// steps) and Steiner junctions (paths starting on an earlier path).
func randomRoutePaths(rng *rand.Rand) [][]geom.Pt3 {
	const w, h, layers = 6, 6, 4
	var paths [][]geom.Pt3
	for k := 1 + rng.Intn(5); k > 0; k-- {
		var p geom.Pt3
		if len(paths) > 0 && rng.Intn(2) == 0 {
			prev := paths[rng.Intn(len(paths))]
			p = prev[rng.Intn(len(prev))]
		} else {
			p = geom.XYL(rng.Intn(w), rng.Intn(h), rng.Intn(layers))
		}
		path := []geom.Pt3{p}
		for s := rng.Intn(30); s > 0; s-- {
			d := []geom.Dir{geom.East, geom.West, geom.North, geom.South, geom.Up, geom.Down}[rng.Intn(6)]
			run := 1
			if d.Via() && rng.Intn(3) == 0 {
				run = 1 + rng.Intn(layers)
			}
			for ; run > 0; run-- {
				q := p.Step(d)
				if q.X < 0 || q.X >= w || q.Y < 0 || q.Y >= h || q.Layer < 0 || q.Layer >= layers {
					break
				}
				path = append(path, q)
				p = q
			}
		}
		paths = append(paths, path)
	}
	return paths
}

// TestRouteMatchesReference: the sorted-index Route answers every query
// like the map-based reference, including PointList and ViaList order,
// on fresh routes, on routes reused through Reset (warm rebuilds), and
// on routes whose paths arrive through AddPathCopy.
func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	reused := NewRoute(0)
	for trial := 0; trial < 400; trial++ {
		paths := randomRoutePaths(rng)
		fresh, ref := NewRoute(int32(trial)), newRefRoute(int32(trial))
		reused.Reset()
		for _, path := range paths {
			fresh.AddPath(path)
			ref.AddPath(path)
			reused.AddPathCopy(path)
			// Query between paths, as the router does per connection.
			if d := compareRoutes(fresh, ref); d != "" {
				t.Fatalf("trial %d (fresh, %d paths): %s differs from the reference", trial, len(fresh.Paths), d)
			}
		}
		if d := compareRoutes(reused, ref); d != "" {
			t.Fatalf("trial %d (reused): %s differs from the reference", trial, d)
		}
	}
}

// decodeFuzzPaths turns bytes into literal paths, as a decoded payload
// would carry them: an origin chosen from a table that straddles the
// packed-key limits (negative, just below and above 2^14 tracks and 16
// layers, far out of range), then one step per byte — a unit step, a
// jump that is not a unit step, or a new path starting on a visited
// point.
func decodeFuzzPaths(data []byte) [][]geom.Pt3 {
	if len(data) == 0 {
		return nil
	}
	xs := [...]int{0, -2, 1<<14 - 3, 1 << 40, -(1 << 62)}
	ls := [...]int{0, -1, 14, 1 << 33}
	o := data[0]
	p := geom.XYL(xs[int(o)%len(xs)], xs[int(o/5)%len(xs)], ls[int(o/25)%len(ls)])
	var visited []geom.Pt3
	path := []geom.Pt3{p}
	var paths [][]geom.Pt3
	for _, b := range data[1:] {
		switch k := b % 8; {
		case k < 6:
			p = p.Step([]geom.Dir{geom.East, geom.West, geom.North, geom.South, geom.Up, geom.Down}[k])
		case k == 6:
			p = geom.XYL(p.X+int(b>>3)%5-2, p.Y+int(b>>5)%3-1, p.Layer)
		default:
			paths = append(paths, path)
			visited = append(visited, path...)
			p = visited[int(b>>3)%len(visited)]
			path = nil
		}
		path = append(path, p)
	}
	return append(paths, path)
}

// FuzzRoute checks Route against the reference on decoded paths,
// including negative, out-of-range and non-unit-step geometry: first
// as a zero-value literal Route (the decoded form), then reused
// through Reset with the paths in reverse order.
func FuzzRoute(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 4, 1, 7, 3})
	f.Add([]byte{2, 4, 4, 0, 5, 2, 6, 15, 0})
	f.Add([]byte{6, 0, 2, 1, 3, 4, 5, 4, 47, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		paths := decodeFuzzPaths(data)
		got := &Route{Net: 1, Paths: slices.Clone(paths)}
		want := newRefRoute(1)
		want.Paths = paths
		if d := compareRoutes(got, want); d != "" {
			t.Fatalf("literal route: %s differs from the reference", d)
		}
		got.Reset()
		want = newRefRoute(1)
		for i := len(paths) - 1; i >= 0; i-- {
			got.Paths = append(got.Paths, paths[i])
			want.Paths = append(want.Paths, paths[i])
		}
		if d := compareRoutes(got, want); d != "" {
			t.Fatalf("reused route: %s differs from the reference", d)
		}
	})
}

// TestRouteWarmRebuildAllocs: once a recycled route's buffers have
// grown, clearing it and rebuilding the same geometry allocates
// nothing.
func TestRouteWarmRebuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	paths := randomRoutePaths(rng)
	for len(paths) < 3 {
		paths = append(paths, randomRoutePaths(rng)...)
	}
	r := NewRoute(0)
	cycle := func() {
		r.Reset()
		for _, path := range paths {
			r.AddPathCopy(path)
			r.PointList()
		}
		r.Wirelength()
		r.HasPoint(paths[0][0])
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Errorf("warm Route rebuild allocates %.1f per cycle, want 0", avg)
	}
}
