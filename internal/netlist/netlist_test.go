package netlist

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/geom"
)

func sample() *Netlist {
	return &Netlist{
		Name: "t", W: 10, H: 8, NumLayers: 2,
		Nets: []*Net{
			{ID: 0, Name: "n0", Pins: []geom.Pt{geom.XY(0, 0), geom.XY(5, 3)}},
			{ID: 1, Name: "n1", Pins: []geom.Pt{geom.XY(2, 2), geom.XY(2, 7), geom.XY(9, 7)}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Netlist)
	}{
		{"zero width", func(nl *Netlist) { nl.W = 0 }},
		{"one layer", func(nl *Netlist) { nl.NumLayers = 1 }},
		{"pin out of grid", func(nl *Netlist) { nl.Nets[0].Pins[0] = geom.XY(10, 0) }},
		{"negative pin", func(nl *Netlist) { nl.Nets[0].Pins[0] = geom.XY(-1, 0) }},
		{"single pin", func(nl *Netlist) { nl.Nets[0].Pins = nl.Nets[0].Pins[:1] }},
		{"coincident pins", func(nl *Netlist) {
			nl.Nets[0].Pins = []geom.Pt{geom.XY(1, 1), geom.XY(1, 1)}
		}},
		{"shared pin", func(nl *Netlist) { nl.Nets[1].Pins[0] = nl.Nets[0].Pins[1] }},
		{"bad ID", func(nl *Netlist) { nl.Nets[1].ID = 5 }},
	}
	for _, c := range cases {
		nl := sample()
		c.mutate(nl)
		if err := nl.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid netlist", c.name)
		}
	}
}

// TestValidateTypedErrors: degenerate nets are rejected with the typed
// sentinels, reachable through errors.Is even across Read's wrapping.
func TestValidateTypedErrors(t *testing.T) {
	nl := sample()
	nl.Nets[0].Pins = nl.Nets[0].Pins[:1]
	if err := nl.Validate(); !errors.Is(err, ErrTooFewPins) {
		t.Fatalf("single pin: got %v, want ErrTooFewPins", err)
	}

	nl = sample()
	nl.Nets[1].Pins = append(nl.Nets[1].Pins, nl.Nets[1].Pins[0])
	if err := nl.Validate(); !errors.Is(err, ErrDuplicatePin) {
		t.Fatalf("duplicate pin: got %v, want ErrDuplicatePin", err)
	}

	// Duplicates among k > 2 pins: still rejected, even though two
	// distinct pins remain.
	nl = sample()
	nl.Nets[1].Pins = []geom.Pt{geom.XY(2, 2), geom.XY(2, 7), geom.XY(2, 2)}
	if err := nl.Validate(); !errors.Is(err, ErrDuplicatePin) {
		t.Fatalf("duplicate among 3 pins: got %v, want ErrDuplicatePin", err)
	}

	// A pin of another net is refused apart from a repeated one.
	nl = sample()
	nl.Nets[1].Pins[2] = nl.Nets[0].Pins[0]
	if err := nl.Validate(); !errors.Is(err, ErrSharedPin) || errors.Is(err, ErrDuplicatePin) {
		t.Fatalf("shared pin: got %v, want ErrSharedPin", err)
	}

	// The same sentinels surface from the parser.
	if _, err := Read(strings.NewReader("netlist t 8 8 2\nnet a 1 1\n")); !errors.Is(err, ErrTooFewPins) {
		t.Fatalf("Read single pin: got %v, want ErrTooFewPins", err)
	}
	if _, err := Read(strings.NewReader("netlist t 8 8 2\nnet a 1 1 2 2 1 1\n")); !errors.Is(err, ErrDuplicatePin) {
		t.Fatalf("Read duplicate pin: got %v, want ErrDuplicatePin", err)
	}
	if _, err := Read(strings.NewReader("netlist t 8 8 2\nnet a 1 1 2 2\nnet b 3 3 2 2\n")); !errors.Is(err, ErrSharedPin) {
		t.Fatalf("Read shared pin: got %v, want ErrSharedPin", err)
	}
}

func TestHPWL(t *testing.T) {
	n := &Net{Pins: []geom.Pt{geom.XY(1, 1), geom.XY(4, 3)}}
	if got := n.HPWL(); got != 5 {
		t.Errorf("HPWL = %d, want 5", got)
	}
	nl := sample()
	if nl.TotalHPWL() != nl.Nets[0].HPWL()+nl.Nets[1].HPWL() {
		t.Error("TotalHPWL does not sum per-net values")
	}
}

func TestNumPins(t *testing.T) {
	if got := sample().NumPins(); got != 5 {
		t.Errorf("NumPins = %d, want 5", got)
	}
}

func TestRoundTrip(t *testing.T) {
	nl := sample()
	var buf bytes.Buffer
	if err := nl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != nl.Name || got.W != nl.W || got.H != nl.H || got.NumLayers != nl.NumLayers {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Nets) != len(nl.Nets) {
		t.Fatalf("net count %d != %d", len(got.Nets), len(nl.Nets))
	}
	for i, n := range got.Nets {
		want := nl.Nets[i]
		if n.Name != want.Name || len(n.Pins) != len(want.Pins) {
			t.Errorf("net %d mismatch", i)
			continue
		}
		for j, p := range n.Pins {
			if p != want.Pins[j] {
				t.Errorf("net %d pin %d: %v != %v", i, j, p, want.Pins[j])
			}
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\nnetlist x 4 4 2\n# another\nnet a 0 0 3 3\n"
	nl, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Nets) != 1 || nl.Nets[0].Name != "a" {
		t.Errorf("parsed %+v", nl)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"netlist x 4 4\nnet a 0 0 1 1\n",   // short header
		"netlist x 4 4 2\nnet a 0 0 1\n",   // odd coordinate count
		"netlist x 4 4 2\nbogus\n",         // unknown directive
		"netlist x 4 4 2\nnet a 0 0 9 9\n", // pin out of grid (validation)
		"netlist x 4 4 2\nnet a z 0 1 1\n", // non-numeric coordinate
		"netlist x 4 4 2\nnet a 0 0\n",     // single pin
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: Read accepted malformed input", i)
		}
	}
}

// TestReadLongLines: the scanner grows to lines past 1 MiB, and the
// 16 MiB token cap still refuses longer ones with bufio.ErrTooLong.
func TestReadLongLines(t *testing.T) {
	line := func(pad int) string {
		return "netlist x 4 4 2\nnet a" + strings.Repeat(" ", pad) + "0 0 3 3\n"
	}
	nl, err := Read(strings.NewReader(line(1<<20 + 1)))
	if err != nil {
		t.Fatalf("net line over 1 MiB: %v", err)
	}
	if len(nl.Nets) != 1 || len(nl.Nets[0].Pins) != 2 {
		t.Fatalf("net line over 1 MiB parsed as %+v", nl.Nets)
	}
	if _, err := Read(strings.NewReader(line(1<<24 + 1))); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("net line over 16 MiB: err %v, want bufio.ErrTooLong", err)
	}
}

func TestSortNetsByHPWL(t *testing.T) {
	nl := &Netlist{
		Name: "s", W: 20, H: 20, NumLayers: 2,
		Nets: []*Net{
			{ID: 0, Name: "long", Pins: []geom.Pt{geom.XY(0, 0), geom.XY(15, 15)}},
			{ID: 1, Name: "short", Pins: []geom.Pt{geom.XY(3, 3), geom.XY(4, 3)}},
			{ID: 2, Name: "mid", Pins: []geom.Pt{geom.XY(1, 0), geom.XY(6, 5)}},
		},
	}
	nl.SortNetsByHPWL()
	names := []string{nl.Nets[0].Name, nl.Nets[1].Name, nl.Nets[2].Name}
	if names[0] != "short" || names[1] != "mid" || names[2] != "long" {
		t.Errorf("order = %v", names)
	}
	for i, n := range nl.Nets {
		if n.ID != i {
			t.Errorf("net %q has stale ID %d", n.Name, n.ID)
		}
	}
	if err := nl.Validate(); err != nil {
		t.Errorf("sorted netlist invalid: %v", err)
	}
}
