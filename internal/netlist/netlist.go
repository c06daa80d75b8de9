// Package netlist defines placed netlists on a multi-layer routing
// grid: the input of the detailed router (paper §II-A).
//
// The benchmark circuits of the paper (from PARR [18]) use three metal
// layers: metal 1 carries pins and is not allowed for routing, metal 2
// routes horizontally and metal 3 vertically. We model pins as grid
// locations on the lowest routing layer (metal 2), reached from metal 1
// through fixed pin vias that do not participate in routing or DVI.
package netlist

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// Typed degenerate-net errors. Validate (and therefore Read) wraps
// them with the net's name, so callers can branch with errors.Is while
// messages stay self-describing.
var (
	// ErrTooFewPins reports a net with fewer than two pins: a 0- or
	// 1-pin net has nothing to route and would silently verify as
	// trivially connected.
	ErrTooFewPins = errors.New("net has fewer than two pins")
	// ErrDuplicatePin reports a net listing the same pin location more
	// than once. Duplicates are always authoring mistakes (a pin is a
	// placed terminal; two terminals cannot share a cell), and every
	// downstream dedup would mask the mistake, so the boundary rejects
	// them.
	ErrDuplicatePin = errors.New("net lists the same pin twice")
	// ErrSharedPin reports two nets listing the same pin location. The
	// router would hold that cell for both nets, a congestion no
	// rip-up resolves, and spend its whole congestion budget before
	// failing; the boundary rejects it instead.
	ErrSharedPin = errors.New("nets share a pin")
)

// NumberError reports a numeric field of a netlist line that is not a
// decimal integer in its entirety, such as "3x": a field with a
// trailing suffix is an authoring mistake, not the number before it.
type NumberError struct {
	Field string
}

func (e *NumberError) Error() string { return fmt.Sprintf("%q is not a decimal integer", e.Field) }

// Net is a single net: a set of pin locations to be connected.
type Net struct {
	// ID is the net's index within its netlist.
	ID int
	// Name is a human-readable identifier.
	Name string
	// Pins are the pin locations on the lowest routing layer. A legal
	// net has at least two pins, all distinct (any k ≥ 2 is allowed;
	// multi-pin nets are decomposed by the router's topology
	// generator).
	Pins []geom.Pt
}

// BBox returns the bounding box of the net's pins.
func (n *Net) BBox() geom.Rect { return geom.BoundingRect(n.Pins) }

// HPWL returns the half-perimeter wirelength lower bound of the net.
func (n *Net) HPWL() int {
	b := n.BBox()
	return (b.Width() - 1) + (b.Height() - 1)
}

// Netlist is a placed netlist on a W×H routing grid with NumLayers
// routing layers.
type Netlist struct {
	// Name identifies the circuit (e.g. "ecc").
	Name string
	// W, H are the routing grid dimensions in tracks.
	W, H int
	// NumLayers is the number of routing layers; layer 0 is metal 2
	// (horizontal preferred), layer 1 is metal 3 (vertical preferred),
	// and so on with alternating preferred directions.
	NumLayers int
	// Nets holds the nets; Nets[i].ID == i.
	Nets []*Net
}

// Validate checks structural sanity: positive dimensions, at least two
// routing layers, every pin in bounds, every net with at least two
// pins, every pin listed once in the whole netlist (ErrTooFewPins /
// ErrDuplicatePin / ErrSharedPin), and consistent net IDs.
func (nl *Netlist) Validate() error {
	if nl.W <= 0 || nl.H <= 0 {
		return fmt.Errorf("netlist %s: invalid grid %dx%d", nl.Name, nl.W, nl.H)
	}
	if nl.NumLayers < 2 {
		return fmt.Errorf("netlist %s: need >=2 routing layers, have %d", nl.Name, nl.NumLayers)
	}
	owner := make(map[geom.Pt]int, nl.NumPins()) // pin → index of the net listing it
	for i, n := range nl.Nets {
		if n.ID != i {
			return fmt.Errorf("netlist %s: net %q has ID %d at index %d", nl.Name, n.Name, n.ID, i)
		}
		for _, p := range n.Pins {
			if p.X < 0 || p.X >= nl.W || p.Y < 0 || p.Y >= nl.H {
				return fmt.Errorf("netlist %s: net %q pin %v out of grid", nl.Name, n.Name, p)
			}
			if j, ok := owner[p]; ok {
				if j == i {
					return fmt.Errorf("netlist %s: net %q pin %v: %w", nl.Name, n.Name, p, ErrDuplicatePin)
				}
				return fmt.Errorf("netlist %s: net %q pin %v is also a pin of net %q: %w", nl.Name, n.Name, p, nl.Nets[j].Name, ErrSharedPin)
			}
			owner[p] = i
		}
		if len(n.Pins) < 2 {
			return fmt.Errorf("netlist %s: net %q has %d pins: %w", nl.Name, n.Name, len(n.Pins), ErrTooFewPins)
		}
	}
	return nil
}

// NumPins returns the total pin count over all nets.
func (nl *Netlist) NumPins() int {
	n := 0
	for _, net := range nl.Nets {
		n += len(net.Pins)
	}
	return n
}

// TotalHPWL returns the sum of per-net half-perimeter wirelength lower
// bounds.
func (nl *Netlist) TotalHPWL() int {
	n := 0
	for _, net := range nl.Nets {
		n += net.HPWL()
	}
	return n
}

// Write serializes the netlist in the package's plain-text format:
//
//	netlist <name> <W> <H> <layers>
//	net <name> <x1> <y1> <x2> <y2> ...
func (nl *Netlist) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "netlist %s %d %d %d\n", nl.Name, nl.W, nl.H, nl.NumLayers)
	for _, n := range nl.Nets {
		fmt.Fprintf(bw, "net %s", n.Name)
		for _, p := range n.Pins {
			fmt.Fprintf(bw, " %d %d", p.X, p.Y)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Read parses a netlist in the format produced by Write and validates
// it.
func Read(r io.Reader) (*Netlist, error) {
	// The scanner starts small and grows to the longest line, up to
	// the 16 MiB token cap: serving parses every job more than once.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	nl := &Netlist{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "netlist":
			if len(fields) != 5 {
				return nil, fmt.Errorf("line %d: netlist header needs 4 fields", lineNo)
			}
			nl.Name = fields[1]
			var dims [3]int
			for k := range dims {
				v, err := atoi(fields[2+k])
				if err != nil {
					return nil, fmt.Errorf("line %d: bad netlist header: %w", lineNo, err)
				}
				dims[k] = v
			}
			nl.W, nl.H, nl.NumLayers = dims[0], dims[1], dims[2]
		case "net":
			if len(fields) < 2 || len(fields)%2 != 0 {
				return nil, fmt.Errorf("line %d: net line needs name plus coordinate pairs", lineNo)
			}
			n := &Net{ID: len(nl.Nets), Name: fields[1], Pins: make([]geom.Pt, 0, (len(fields)-2)/2)}
			for i := 2; i < len(fields); i += 2 {
				x, errX := atoi(fields[i])
				y, errY := atoi(fields[i+1])
				if err := cmp.Or(errX, errY); err != nil {
					return nil, fmt.Errorf("line %d: bad pin: %w", lineNo, err)
				}
				n.Pins = append(n.Pins, geom.XY(x, y))
			}
			nl.Nets = append(nl.Nets, n)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

// atoi parses one numeric field: an optional sign and decimal digits,
// nothing else.
func atoi(field string) (int, error) {
	v, err := strconv.Atoi(field)
	if err != nil {
		return 0, &NumberError{Field: field}
	}
	return v, nil
}

// SortNetsByHPWL orders nets by ascending wirelength lower bound with
// net name as a deterministic tiebreak, renumbering IDs. Routing short
// nets first is the usual sequential-routing heuristic.
func (nl *Netlist) SortNetsByHPWL() {
	sort.SliceStable(nl.Nets, func(i, j int) bool {
		hi, hj := nl.Nets[i].HPWL(), nl.Nets[j].HPWL()
		if hi != hj {
			return hi < hj
		}
		return nl.Nets[i].Name < nl.Nets[j].Name
	})
	for i, n := range nl.Nets {
		n.ID = i
	}
}
