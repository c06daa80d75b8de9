package bench

import (
	"strings"
	"testing"

	"repro/internal/coloring"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "1"}, {"y", "22"}},
	}
	s := tbl.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	// Columns align: all data lines have equal width.
	if len(lines[1]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Errorf("misaligned table:\n%s", s)
	}
}

func TestTableVRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the router and ILP")
	}
	tbl, err := TableV(TinySuite()[:1])
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.String()
	if !strings.Contains(s, "[36]") || !strings.Contains(s, "this") {
		t.Errorf("Table V missing parameter rows:\n%s", s)
	}
}

// TestTableVIVIIRenders: the heuristic reports zero uncolorable vias,
// and an ILP #DV cell whose solve stopped at the node cap carries "*"
// and the table its legend line, a proven one neither. At
// DeterministicILPNodeLimit, ecc-t's solves are proven and efc-t's SIM
// solve stops at the cap.
func TestTableVIVIIRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the router and ILP")
	}
	unproven := map[string]bool{"efc-t": true}
	for _, tc := range []struct {
		typ      coloring.SADPType
		circuits int
	}{{coloring.SIM, 2}, {coloring.SID, 1}} {
		tbl, err := TableVIVII(TinySuite()[:tc.circuits], tc.typ)
		if err != nil {
			t.Fatal(err)
		}
		s := tbl.String()
		if !strings.Contains(s, "ILP") || !strings.Contains(s, "Heur") {
			t.Errorf("Table VI/VII missing columns:\n%s", s)
		}
		rows, marked := 0, false
		for _, line := range strings.Split(s, "\n") {
			f := strings.Fields(line)
			if len(f) != 7 {
				continue
			}
			rows++
			if f[5] != "0" {
				t.Errorf("%s %v: heuristic #UV = %s, want 0", f[0], tc.typ, f[5])
			}
			m := strings.HasSuffix(f[1], "*")
			if m != unproven[f[0]] {
				t.Errorf("%s %v: ILP #DV %s marked %v, want %v", f[0], tc.typ, f[1], m, unproven[f[0]])
			}
			marked = marked || m
		}
		if rows != tc.circuits {
			t.Errorf("%v: %d circuit rows, want %d:\n%s", tc.typ, rows, tc.circuits, s)
		}
		if strings.Contains(s, unprovenLegend) != marked {
			t.Errorf("%v: legend line present %v, want %v:\n%s", tc.typ, !marked, marked, s)
		}
	}
}

func TestRunSpecUnknownMethod(t *testing.T) {
	nl := Generate(TinySuite()[0])
	if _, _, err := Run(nl, RunSpec{Scheme: coloring.SIM, Method: DVIMethod(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}
