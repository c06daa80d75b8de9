package netlist

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead hammers the parser with arbitrary bytes. The parser is a
// trust boundary — the sadprouted service feeds it user-supplied
// request bodies — so the contract is strict: it must never panic,
// every accepted netlist must satisfy Validate (the router relies on
// that), and accepted netlists must survive a Write/Read round trip
// unchanged in shape.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"",
		"netlist t 8 8 2\nnet a 1 1 5 1\nnet b 2 3 2 6\n",
		"# comment\n\nnetlist t 4 4 2\nnet a 0 0 3 3\n",
		"netlist t 8 8 2\nnet a 1 1\n",                      // one pin: invalid
		"netlist t 8 8 2\nnet a 1 1 9 9\n",                  // pin out of grid
		"netlist t 0 0 2\nnet a 0 0 0 0\n",                  // zero grid
		"netlist t 8 8 1\nnet a 1 1 2 2\n",                  // too few layers
		"net a 1 1 2 2\n",                                   // net before header
		"netlist t 8 8 2\nnet a 1 1 2\n",                    // odd coordinate count
		"netlist t 8 8 2\nnet a x y 2 2\n",                  // non-numeric pins
		"netlist t -3 8 2\nnet a 1 1 2 2\n",                 // negative dims
		"bogus directive\n",                                 // unknown directive
		"netlist t 99999999999999999999 8 2\n",              // integer overflow
		"netlist t 8 8 2\nnet a 1 1 1 1\n",                  // duplicate pins only
		"netlist t 8 8 2\r\nnet a 1 1 5 1\r\n",              // CRLF
		"netlist t 8 8 2\nnet é 1 1 5 1\n",                  // non-ASCII name
		"netlist a 8 8 2\nnetlist b 6 6 2\nnet a 1 1 2 2\n", // repeated header
		// k-pin nets: the extended multi-pin format is the same line
		// grammar with more coordinate pairs.
		"netlist t 12 12 2\nnet a 1 1 5 1 3 4\n",                               // 3-pin
		"netlist t 12 12 2\nnet a 0 0 11 0 0 11 11 11 5 6\n",                   // 5-pin
		"netlist t 16 16 3\nnet a 1 1 9 2 4 7 12 12 2 9 14 3\nnet b 0 5 8 8\n", // 6-pin + 2-pin
		"netlist t 12 12 2\nnet a 1 1 5 1 1 1\n",                               // duplicate among k pins
		"netlist t 12 12 2\nnet a 1 1 5 1 5 12\n",                              // k-pin with one pin out of grid
		"netlist t 12 12 2\nnet a 1 1 5 1\nnet b 5 1 7 7\n",                    // two nets share a pin
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		nl, err := Read(strings.NewReader(s))
		if err != nil {
			return // rejecting malformed input is the correct outcome
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("Read accepted a netlist that fails Validate: %v\ninput: %q", err, s)
		}
		seen := map[[2]int]bool{} // over the whole netlist: no pin repeats or is shared
		for _, n := range nl.Nets {
			if len(n.Pins) < 2 {
				t.Fatalf("accepted net %q with %d pins\ninput: %q", n.Name, len(n.Pins), s)
			}
			for _, p := range n.Pins {
				k := [2]int{p.X, p.Y}
				if seen[k] {
					t.Fatalf("accepted net %q with a repeated or shared pin %v\ninput: %q", n.Name, p, s)
				}
				seen[k] = true
			}
		}
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			t.Fatalf("Write of accepted netlist: %v", err)
		}
		nl2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\nserialized: %q", err, buf.String())
		}
		if nl2.Name != nl.Name || nl2.W != nl.W || nl2.H != nl.H || nl2.NumLayers != nl.NumLayers || len(nl2.Nets) != len(nl.Nets) {
			t.Fatalf("round trip changed shape: %s %dx%dx%d/%d nets vs %s %dx%dx%d/%d nets",
				nl.Name, nl.W, nl.H, nl.NumLayers, len(nl.Nets),
				nl2.Name, nl2.W, nl2.H, nl2.NumLayers, len(nl2.Nets))
		}
		if nl.NumPins() != nl2.NumPins() || nl.TotalHPWL() != nl2.TotalHPWL() {
			t.Fatalf("round trip changed pins: %d/%d pins, HPWL %d/%d",
				nl.NumPins(), nl2.NumPins(), nl.TotalHPWL(), nl2.TotalHPWL())
		}
	})
}
