package tpl

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestLayerViasAddRemove(t *testing.T) {
	lv := NewLayerVias(10, 10)
	p := geom.XY(3, 4)
	if lv.Has(p) || lv.Len() != 0 {
		t.Fatal("new layer not empty")
	}
	lv.Add(p)
	if !lv.Has(p) || lv.Len() != 1 {
		t.Fatal("Add failed")
	}
	lv.Add(p) // stacked transient via
	if lv.Len() != 2 {
		t.Fatal("multiplicity not tracked")
	}
	lv.Remove(p)
	if !lv.Has(p) {
		t.Fatal("Remove dropped multiplicity too early")
	}
	lv.Remove(p)
	if lv.Has(p) || lv.Len() != 0 {
		t.Fatal("Remove failed")
	}
}

func TestLayerViasRemoveAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Remove of absent via did not panic")
		}
	}()
	NewLayerVias(4, 4).Remove(geom.XY(1, 1))
}

func TestNewLayerViasInvalidDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid dims did not panic")
		}
	}()
	NewLayerVias(0, 5)
}

func TestLayerViasBounds(t *testing.T) {
	lv := NewLayerVias(5, 7)
	for _, p := range []geom.Pt{{X: -1, Y: 0}, {X: 0, Y: -1}, {X: 5, Y: 0}, {X: 0, Y: 7}} {
		if lv.InBounds(p) {
			t.Errorf("%v reported in bounds", p)
		}
		if lv.Has(p) {
			t.Errorf("Has(%v) true out of bounds", p)
		}
	}
	if !lv.InBounds(geom.XY(4, 6)) || !lv.InBounds(geom.XY(0, 0)) {
		t.Error("corner sites reported out of bounds")
	}
}

func TestWindowAtBorder(t *testing.T) {
	lv := NewLayerVias(4, 4)
	lv.Add(geom.XY(0, 0))
	// Window at (-2,-2) contains (0,0) at offset (2,2).
	w := lv.WindowAt(geom.XY(-2, -2))
	if !w.Has(2, 2) || w.Count() != 1 {
		t.Errorf("border window = %09b", w)
	}
	// Window fully outside is empty.
	if lv.WindowAt(geom.XY(-5, -5)) != 0 {
		t.Error("out-of-grid window not empty")
	}
}

func TestSitesAndSiteList(t *testing.T) {
	lv := NewLayerVias(6, 6)
	pts := []geom.Pt{geom.XY(1, 1), geom.XY(4, 2), geom.XY(0, 5)}
	for _, p := range pts {
		lv.Add(p)
	}
	lv.Add(pts[0]) // double occupancy listed once
	got := lv.SiteList()
	if len(got) != 3 {
		t.Fatalf("SiteList len = %d", len(got))
	}
	want := map[geom.Pt]bool{pts[0]: true, pts[1]: true, pts[2]: true}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected site %v", p)
		}
	}
}

// Build the Fig 7(d) FVP and confirm detection both globally and
// incrementally.
func TestFVPDetection(t *testing.T) {
	lv := NewLayerVias(10, 10)
	for _, p := range []geom.Pt{geom.XY(4, 4), geom.XY(5, 4), geom.XY(4, 5)} {
		lv.Add(p)
	}
	if lv.HasFVP() {
		t.Fatal("3 vias cannot form an FVP")
	}
	if !lv.WouldCreateFVP(geom.XY(5, 5)) {
		t.Fatal("adding the 4th packed via must create an FVP")
	}
	lv.Add(geom.XY(5, 5))
	if !lv.HasFVP() {
		t.Fatal("FVP not detected after insertion")
	}
	fvps := lv.AllFVPs()
	if len(fvps) == 0 {
		t.Fatal("AllFVPs empty")
	}
	touching := lv.FVPsTouching(geom.XY(5, 5))
	if len(touching) == 0 {
		t.Fatal("FVPsTouching empty for member via")
	}
	// Every touching FVP must also be found by the global scan.
	all := map[geom.Pt]bool{}
	for _, o := range fvps {
		all[o] = true
	}
	for _, o := range touching {
		if !all[o] {
			t.Errorf("incremental FVP %v missed by global scan", o)
		}
	}
	lv.Remove(geom.XY(5, 5))
	if lv.HasFVP() {
		t.Fatal("FVP persists after removal")
	}
}

func TestWouldCreateFVPNoFalsePositive(t *testing.T) {
	lv := NewLayerVias(10, 10)
	// Diagonal corners allow a 4th via.
	lv.Add(geom.XY(4, 4))
	lv.Add(geom.XY(6, 6))
	lv.Add(geom.XY(5, 4))
	if lv.WouldCreateFVP(geom.XY(6, 5)) {
		t.Error("diagonal-corner 4-via pattern wrongly predicted as FVP")
	}
	if lv.WouldCreateFVP(geom.XY(50, 50)) {
		t.Error("out-of-bounds site predicted to create FVP")
	}
}

func TestWouldCreateFVPOnOccupiedSiteIsStable(t *testing.T) {
	lv := NewLayerVias(10, 10)
	for _, p := range []geom.Pt{geom.XY(4, 4), geom.XY(5, 4), geom.XY(4, 5), geom.XY(5, 5)} {
		lv.Add(p)
	}
	// The FVP already exists; re-adding an existing via does not
	// *create* one (window unchanged).
	if lv.WouldCreateFVP(geom.XY(5, 5)) {
		t.Error("existing via site reported as creating a new FVP")
	}
}

func TestConflictsCount(t *testing.T) {
	lv := NewLayerVias(10, 10)
	center := geom.XY(5, 5)
	lv.Add(geom.XY(6, 5)) // d²=1
	lv.Add(geom.XY(7, 6)) // d²=5
	lv.Add(geom.XY(7, 7)) // d²=8, no conflict
	lv.Add(geom.XY(5, 5)) // own site, excluded
	if got := lv.Conflicts(center); got != 2 {
		t.Errorf("Conflicts = %d, want 2", got)
	}
	n := 0
	lv.ConflictSites(center, func(geom.Pt) { n++ })
	if n != 2 {
		t.Errorf("ConflictSites visited %d, want 2", n)
	}
}

// Randomized consistency: incremental WouldCreateFVP agrees with
// add-then-scan on random via soups.
func TestWouldCreateFVPMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		lv := NewLayerVias(12, 12)
		for i := 0; i < 18; i++ {
			p := geom.XY(rng.Intn(12), rng.Intn(12))
			if !lv.Has(p) && !lv.WouldCreateFVP(p) {
				lv.Add(p)
			}
		}
		if lv.HasFVP() {
			t.Fatal("blocking invariant violated: FVP appeared despite WouldCreateFVP guard")
		}
		p := geom.XY(rng.Intn(12), rng.Intn(12))
		if lv.Has(p) {
			continue
		}
		pred := lv.WouldCreateFVP(p)
		before := len(lv.AllFVPs())
		lv.Add(p)
		after := len(lv.AllFVPs())
		if pred != (after > before) {
			t.Fatalf("trial %d: WouldCreateFVP(%v)=%v but FVPs %d→%d", trial, p, pred, before, after)
		}
	}
}

func BenchmarkWouldCreateFVP(b *testing.B) {
	lv := NewLayerVias(64, 64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		p := geom.XY(rng.Intn(64), rng.Intn(64))
		if !lv.Has(p) {
			lv.Add(p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv.WouldCreateFVP(geom.XY(i%64, (i/64)%64))
	}
}

func BenchmarkAllFVPs(b *testing.B) {
	lv := NewLayerVias(128, 128)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := geom.XY(rng.Intn(128), rng.Intn(128))
		if !lv.Has(p) {
			lv.Add(p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lv.AllFVPs()
	}
}

// refWouldCreateFVP is the probe WouldCreateFVP replaced: it extracts
// each of the nine windows containing p from the grid.
func refWouldCreateFVP(lv *LayerVias, p geom.Pt) bool {
	if !lv.InBounds(p) {
		return false
	}
	for dy := -2; dy <= 0; dy++ {
		for dx := -2; dx <= 0; dx++ {
			o := geom.XY(p.X+dx, p.Y+dy)
			w := lv.WindowAt(o)
			nw := w.Set(p.X-o.X, p.Y-o.Y)
			if nw != w && nw.IsFVP() {
				return true
			}
		}
	}
	return false
}

// TestWouldCreateFVPMatchesWindowProbe compares the 5×5-mask probe
// with the nine-window probe on every neighbourhood of an interior site
// with an empty centre (2^24, visited in Gray-code order so each step
// toggles one via), and on every site of every occupancy of grids up to
// 4×4, which covers each border case.
func TestWouldCreateFVPMatchesWindowProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("2^24 neighbourhoods")
	}
	centre := geom.XY(3, 3)
	var sites []geom.Pt
	for y := 1; y <= 5; y++ {
		for x := 1; x <= 5; x++ {
			if p := geom.XY(x, y); p != centre {
				sites = append(sites, p)
			}
		}
	}
	// Four parallel quarters of the Gray-code sequence, each starting
	// from the neighbourhood of its first code.
	const quarter = 1 << 22
	t.Run("interior", func(t *testing.T) {
		for q := uint32(0); q < 4; q++ {
			q := q
			t.Run(fmt.Sprint(q), func(t *testing.T) {
				t.Parallel()
				lv := NewLayerVias(7, 7)
				first := q * quarter
				for k, p := range sites {
					if (first^first>>1)&(1<<k) != 0 {
						lv.Add(p)
					}
				}
				for code := first; code < first+quarter; code++ {
					if code > first {
						// Step code turns Gray(code-1) into Gray(code).
						p := sites[bits.TrailingZeros32(code)]
						if lv.Has(p) {
							lv.Remove(p)
						} else {
							lv.Add(p)
						}
					}
					if got, want := lv.WouldCreateFVP(centre), refWouldCreateFVP(lv, centre); got != want {
						t.Fatalf("neighbourhood %v: WouldCreateFVP %v, window probe %v", lv.SiteList(), got, want)
					}
				}
			})
		}
	})

	for w := 1; w <= 4; w++ {
		for h := 1; h <= 4; h++ {
			lv := NewLayerVias(w, h)
			for occ := 0; occ < 1<<(w*h); occ++ {
				lv.Clear()
				for k := 0; k < w*h; k++ {
					if occ&(1<<k) != 0 {
						lv.Add(geom.XY(k%w, k/w))
					}
				}
				for y := -1; y <= h; y++ {
					for x := -1; x <= w; x++ {
						p := geom.XY(x, y)
						if got, want := lv.WouldCreateFVP(p), refWouldCreateFVP(lv, p); got != want {
							t.Fatalf("%dx%d grid %v at %v: WouldCreateFVP %v, window probe %v", w, h, lv.SiteList(), p, got, want)
						}
					}
				}
			}
		}
	}
}
