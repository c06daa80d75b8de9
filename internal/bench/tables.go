package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/router"
)

// Table is a formatted experiment table mirroring one of the paper's.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Legend, when set, is printed as one line under the rows.
	Legend string
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Legend != "" {
		fmt.Fprintf(&b, "%s\n", t.Legend)
	}
	return b.String()
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// unprovenLegend explains the marker ilpDVCell puts on an ILP #DV cell.
var unprovenLegend = fmt.Sprintf("* the ILP stopped at its %d-node cap before proving optimality; the cell is its best incumbent", DeterministicILPNodeLimit)

// ilpDVCell renders an ILP #DV cell: "*"-marked, with t's legend, if
// the solve stopped at the cap unproven.
func ilpDVCell(t *Table, row Row, art *Artifacts) string {
	if !art.Solution.LimitHit {
		return fmt.Sprint(row.DV)
	}
	t.Legend = unprovenLegend
	return fmt.Sprintf("%d*", row.DV)
}

// Table1 reports benchmark statistics (paper Table I).
func Table1(circuits []Circuit) *Table {
	t := &Table{
		Title:  "Table I: Statistics of benchmarks",
		Header: []string{"Benchmark", "#Nets", "Grid size", "#Pins"},
	}
	for _, c := range circuits {
		nl := Generate(c)
		t.Rows = append(t.Rows, []string{
			c.Name,
			fmt.Sprint(len(nl.Nets)),
			fmt.Sprintf("%dx%d", nl.W, nl.H),
			fmt.Sprint(nl.NumPins()),
		})
	}
	return t
}

// Table2 reports the parameter values (paper Table II).
func Table2() *Table {
	p := router.DefaultParams()
	h := dvi.DefaultHeurParams()
	return &Table{
		Title:  "Table II: Parameter values in the experiments",
		Header: []string{"parameter", "alpha", "AMC", "beta", "gamma", "delta", "lambda", "mu"},
		Rows: [][]string{{
			"value",
			fmt.Sprint(p.Alpha), fmt.Sprint(p.AMC), fmt.Sprint(p.Beta), fmt.Sprint(p.Gamma),
			fmt.Sprint(h.Delta), fmt.Sprint(h.Lambda), fmt.Sprint(h.Mu),
		}},
	}
}

// configColumns are the four experiment groups of Tables III/IV.
var configColumns = []struct {
	label    string
	dvi, tpl bool
}{
	{"baseline", false, false},
	{"+DVI", true, false},
	{"+TPL", false, true},
	{"+DVI+TPL", true, true},
}

// TableIIIIV runs the four-configuration comparison for one SADP type
// (paper Tables III and IV). Post-routing DVI uses the ILP for a fair
// dead-via comparison, as in the paper.
func TableIIIIV(circuits []Circuit, scheme coloring.SADPType) (*Table, error) {
	num := "III (SIM)"
	if scheme == coloring.SID {
		num = "IV (SID)"
	}
	t := &Table{
		Title:  fmt.Sprintf("Table %s: SADP-aware detailed routing considering DVI and via layer TPL", num),
		Header: []string{"CKT", "config", "WL", "#Vias", "CPU(s)", "#DV", "#UV"},
	}
	sums := make([]struct {
		wl, vias, dv, uv int
		cpu              time.Duration
	}, len(configColumns))
	for _, c := range circuits {
		nl := Generate(c)
		for ci, cc := range configColumns {
			row, art, err := Run(nl, RunSpec{
				Scheme:       scheme,
				ConsiderDVI:  cc.dvi,
				ConsiderTPL:  cc.tpl,
				Method:       ILPDVI,
				ILPNodeLimit: DeterministicILPNodeLimit,
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				c.Name, cc.label,
				fmt.Sprint(row.WL), fmt.Sprint(row.Vias), secs(row.RouteCPU),
				ilpDVCell(t, row, art), fmt.Sprint(row.UV),
			})
			sums[ci].wl += row.WL
			sums[ci].vias += row.Vias
			sums[ci].dv += row.DV
			sums[ci].uv += row.UV
			sums[ci].cpu += row.RouteCPU
		}
	}
	n := float64(len(circuits))
	base := sums[0]
	for ci, cc := range configColumns {
		s := sums[ci]
		t.Rows = append(t.Rows, []string{
			"Ave.", cc.label,
			fmt.Sprintf("%.1f", float64(s.wl)/n), fmt.Sprintf("%.1f", float64(s.vias)/n),
			fmt.Sprintf("%.2f", s.cpu.Seconds()/n),
			fmt.Sprintf("%.1f", float64(s.dv)/n), fmt.Sprintf("%.1f", float64(s.uv)/n),
		})
	}
	for ci, cc := range configColumns {
		s := sums[ci]
		nor := func(v, b int) string {
			if b == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", float64(v)/float64(b))
		}
		t.Rows = append(t.Rows, []string{
			"Nor.", cc.label,
			nor(s.wl, base.wl), nor(s.vias, base.vias),
			nor(int(s.cpu), int(base.cpu)),
			nor(s.dv, base.dv), nor(s.uv, base.uv),
		})
	}
	return t, nil
}

// TableV compares the conference-version parameters against the
// enlarged journal parameters (paper Table V), both with DVI and via
// layer TPL consideration under SIM.
func TableV(circuits []Circuit) (*Table, error) {
	t := &Table{
		Title:  "Table V: enlarged cost-assignment parameters vs conference version [36] (SIM, DVI+TPL)",
		Header: []string{"CKT", "params", "WL", "#Vias", "CPU(s)", "#DV", "#UV"},
	}
	specs := []struct {
		label  string
		params router.Params
	}{
		{"[36]", router.ConferenceParams()},
		{"this", router.DefaultParams()},
	}
	var sums [2]struct {
		wl, dv int
		cpu    time.Duration
	}
	for _, c := range circuits {
		nl := Generate(c)
		for si, sp := range specs {
			row, art, err := Run(nl, RunSpec{
				Scheme: coloring.SIM, ConsiderDVI: true, ConsiderTPL: true,
				Params: sp.params, Method: ILPDVI, ILPNodeLimit: DeterministicILPNodeLimit,
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				c.Name, sp.label,
				fmt.Sprint(row.WL), fmt.Sprint(row.Vias), secs(row.RouteCPU),
				ilpDVCell(t, row, art), fmt.Sprint(row.UV),
			})
			sums[si].wl += row.WL
			sums[si].dv += row.DV
			sums[si].cpu += row.RouteCPU
		}
	}
	if sums[0].dv > 0 {
		t.Rows = append(t.Rows, []string{
			"Nor.", "this/[36]",
			fmt.Sprintf("%.2f", float64(sums[1].wl)/float64(sums[0].wl)), "-",
			fmt.Sprintf("%.2f", float64(sums[1].cpu)/float64(sums[0].cpu)),
			fmt.Sprintf("%.2f", float64(sums[1].dv)/float64(sums[0].dv)), "-",
		})
	}
	return t, nil
}

// TableVIVII compares the ILP and heuristic TPL-aware DVI solvers on
// routing solutions produced with full consideration (paper Tables VI
// and VII).
func TableVIVII(circuits []Circuit, scheme coloring.SADPType) (*Table, error) {
	num := "VI (SIM)"
	if scheme == coloring.SID {
		num = "VII (SID)"
	}
	t := &Table{
		Title:  fmt.Sprintf("Table %s: TPL-aware DVI, ILP vs heuristic", num),
		Header: []string{"CKT", "ILP #DV", "ILP #UV", "ILP CPU(s)", "Heur #DV", "Heur #UV", "Heur CPU(s)"},
	}
	var ilpDV, heurDV int
	var ilpCPU, heurCPU time.Duration
	for _, c := range circuits {
		nl := Generate(c)
		ilpRow, ilpArt, err := Run(nl, RunSpec{
			Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true,
			Method: ILPDVI, ILPNodeLimit: DeterministicILPNodeLimit,
		})
		if err != nil {
			return nil, err
		}
		heurRow, _, err := Run(nl, RunSpec{
			Scheme: scheme, ConsiderDVI: true, ConsiderTPL: true,
			Method: HeurDVI,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			c.Name,
			ilpDVCell(t, ilpRow, ilpArt), fmt.Sprint(ilpRow.UV), secs(ilpRow.DVICPU),
			fmt.Sprint(heurRow.DV), fmt.Sprint(heurRow.UV), secs(heurRow.DVICPU),
		})
		ilpDV += ilpRow.DV
		heurDV += heurRow.DV
		ilpCPU += ilpRow.DVICPU
		heurCPU += heurRow.DVICPU
	}
	n := float64(len(circuits))
	t.Rows = append(t.Rows, []string{
		"Ave.",
		fmt.Sprintf("%.1f", float64(ilpDV)/n), "", fmt.Sprintf("%.2f", ilpCPU.Seconds()/n),
		fmt.Sprintf("%.1f", float64(heurDV)/n), "", fmt.Sprintf("%.2f", heurCPU.Seconds()/n),
	})
	if heurDV > 0 && heurCPU > 0 {
		t.Rows = append(t.Rows, []string{
			"Nor.",
			fmt.Sprintf("%.2f", float64(ilpDV)/float64(heurDV)), "",
			fmt.Sprintf("%.2fx", float64(ilpCPU)/float64(heurCPU)),
			"1.00", "", "1.00",
		})
	}
	return t, nil
}
