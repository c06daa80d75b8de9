package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/coloring"
)

func TestSuiteMatchesTable1(t *testing.T) {
	want := []struct {
		name string
		nets int
		w, h int
	}{
		{"ecc", 1671, 436, 446},
		{"efc", 2219, 406, 421},
		{"ctl", 2706, 496, 503},
		{"alu", 3108, 406, 408},
		{"div", 5813, 636, 646},
		{"top", 22201, 1176, 1179},
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d circuits", len(suite))
	}
	for i, w := range want {
		c := suite[i]
		if c.Name != w.name || c.Nets != w.nets || c.W != w.w || c.H != w.h {
			t.Errorf("circuit %d = %+v, want %+v", i, c, w)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := TinySuite()[0]
	a, b := Generate(c), Generate(c)
	if len(a.Nets) != len(b.Nets) {
		t.Fatal("net counts differ across generations")
	}
	for i := range a.Nets {
		if len(a.Nets[i].Pins) != len(b.Nets[i].Pins) {
			t.Fatalf("net %d pin count differs", i)
		}
		for j := range a.Nets[i].Pins {
			if a.Nets[i].Pins[j] != b.Nets[i].Pins[j] {
				t.Fatalf("net %d pin %d differs", i, j)
			}
		}
	}
}

func TestGeneratePinsDistinct(t *testing.T) {
	nl := Generate(ScaledSuite(8)[0])
	seen := map[[2]int]bool{}
	for _, n := range nl.Nets {
		for _, p := range n.Pins {
			k := [2]int{p.X, p.Y}
			if seen[k] {
				t.Fatalf("duplicate pin at %v", p)
			}
			seen[k] = true
		}
	}
}

func TestScaledSuitePreservesDensity(t *testing.T) {
	full := Suite()[0]
	scaled := ScaledSuite(4)[0]
	fd := float64(full.Nets) / float64(full.W*full.H)
	sd := float64(scaled.Nets) / float64(scaled.W*scaled.H)
	if sd < fd*0.5 || sd > fd*2.0 {
		t.Errorf("density drifted: full %.5f scaled %.5f", fd, sd)
	}
	if ScaledSuite(1)[0].Name != "ecc" {
		t.Error("factor 1 must return the full suite")
	}
}

func TestRunAllMethods(t *testing.T) {
	nl := Generate(TinySuite()[0])
	for _, m := range []DVIMethod{NoDVI, HeurDVI, ILPDVI} {
		row, art, err := Run(nl, RunSpec{
			Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
			Method: m, ILPTimeLimit: time.Minute, Verify: true,
		})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if art.Verify == nil {
			t.Fatalf("method %d: Verify set but no report attached", m)
		}
		if err := art.Verify.Err(); err != nil {
			t.Errorf("method %d: independent verifier rejects the solution: %v", m, err)
		}
		if row.Routability != 1 {
			t.Fatalf("method %d: routability %v", m, row.Routability)
		}
		if m == NoDVI {
			if art.Solution != nil {
				t.Error("NoDVI produced a DVI solution")
			}
			continue
		}
		if art.Solution == nil || row.DV+art.Solution.InsertedCount != len(art.Instance.Vias) {
			t.Errorf("method %d: inconsistent DVI accounting", m)
		}
		if row.UV != 0 {
			t.Errorf("method %d: %d uncolorable vias with TPL consideration", m, row.UV)
		}
	}
}

func TestTable1And2Render(t *testing.T) {
	t1 := Table1(TinySuite())
	if !strings.Contains(t1.String(), "ecc-t") {
		t.Error("Table 1 missing circuit")
	}
	t2 := Table2()
	s := t2.String()
	for _, tok := range []string{"alpha", "8", "4", "1"} {
		if !strings.Contains(s, tok) {
			t.Errorf("Table 2 missing %q", tok)
		}
	}
}

// The headline shapes of the evaluation, on the tiny suite:
// baseline leaves TPL violations, +TPL removes them, +DVI reduces dead
// vias, and the heuristic is close to the ILP with far lower runtime.
func TestEvaluationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full shape check is slow")
	}
	circuits := TinySuite()
	tbl, err := TableIIIIV(circuits, coloring.SIM)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.String()
	if !strings.Contains(s, "baseline") || !strings.Contains(s, "+DVI+TPL") {
		t.Fatalf("table missing config rows:\n%s", s)
	}
	// Parse the Nor. rows: dead vias with +DVI+TPL must improve over
	// baseline, and UV must be 0 for +TPL configs.
	var lines []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, "Nor.") {
			lines = append(lines, l)
		}
	}
	if len(lines) != 4 {
		t.Fatalf("want 4 Nor. rows, got %d:\n%s", len(lines), s)
	}
	// Row order matches configColumns; last column is #UV, second to
	// last #DV.
	full := strings.Fields(lines[3])
	dvRatio := full[len(full)-2]
	if dvRatio == "-" {
		t.Skip("baseline produced no dead vias at this scale")
	}
	ratio, err := strconv.ParseFloat(dvRatio, 64)
	if err != nil {
		t.Fatalf("cannot parse DV ratio %q", dvRatio)
	}
	if ratio >= 1.0 {
		t.Errorf("DVI+TPL dead via ratio %.2f, want < 1.0 (paper: ~0.38)", ratio)
	}
}
