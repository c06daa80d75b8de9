package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/coloring"
)

// CostScale is the integer cost unit of one preferred-direction wire
// segment. It is divisible by 1..4 so the paper's α/feasible-DVIC and
// β/feasible-DVIC divisions stay exact.
const CostScale = 12

// Params holds the routing cost parameters. Alpha, AMC, Beta and Gamma
// are the cost assignment scheme weights of the paper's Table II,
// expressed in wire-segment units and scaled by CostScale internally.
type Params struct {
	// Alpha weights the block-DVIC cost: BDC = Alpha / #feasibleDVICs
	// (§III-B).
	Alpha int64 `json:"alpha"`
	// AMC is the constant along-metal cost (§III-B).
	AMC int64 `json:"amc"`
	// Beta weights the conflict-DVIC cost: CDC = Beta / #feasibleDVICs
	// (§III-B).
	Beta int64 `json:"beta"`
	// Gamma weights the TPL cost: TPLC = Gamma × #coloringConflicts
	// (§III-B).
	Gamma int64 `json:"gamma"`

	// ViaCost is the cost of one via in wire-segment units.
	ViaCost int64 `json:"via_cost"`
	// NonPrefMul multiplies the wire cost of segments in the
	// non-preferred routing direction ("strongly discouraged", §II-A).
	NonPrefMul int64 `json:"non_pref_mul"`
	// NonPrefTurnCost penalizes a non-preferred turn in wire-segment
	// units.
	NonPrefTurnCost int64 `json:"non_pref_turn_cost"`
	// UsagePenalty is the base negotiated-congestion penalty per
	// conflicting occupant; it escalates with rip-up iterations.
	UsagePenalty int64 `json:"usage_penalty"`
	// HistInc is the history cost increment added to a congested or
	// FVP resource per R&R round.
	HistInc int64 `json:"hist_inc"`
}

// DefaultParams returns the parameter values of Table II with the base
// routing costs used throughout the experiments.
func DefaultParams() Params {
	return Params{
		Alpha: 8, AMC: 1, Beta: 4, Gamma: 4,
		ViaCost:         4,
		NonPrefMul:      4,
		NonPrefTurnCost: 2,
		UsagePenalty:    12,
		HistInc:         3,
	}
}

// ConferenceParams returns the smaller cost-assignment weights of the
// conference version of the paper ([36], compared against in Table V):
// the journal version "enlarges the parameters used in the cost
// assignment scheme to emphasize DVI consideration". The exact
// conference values are unpublished; halving the DVI weights
// reproduces the reported effect (≈1/3 more dead vias at equal
// wirelength).
func ConferenceParams() Params {
	p := DefaultParams()
	p.Alpha = 2
	p.Beta = 1
	p.AMC = 0
	return p
}

// ErrInvalidParams reports a routing parameter block the search cannot
// use. Params.Validate wraps it with the offending field.
var ErrInvalidParams = errors.New("router: invalid params")

// MaxParam caps every Params weight; every default is at most 12. The
// search's bucket ring grows with the step costs: on a 20×20 netlist a
// via_cost of 2^20 grows one searcher's ring to 2^25 buckets, larger
// weights overflow the ring's size or its keys, and every weight at
// the cap peaks at 131 072 buckets (1 024 at the defaults).
const MaxParam = 1000

// Validate reports whether p is usable by the search. Every field must
// lie in [0, MaxParam]: a negative step cost breaks the bucket queue's
// monotone keys, and an unbounded one its size. NonPrefMul must be at
// least 1, because the A* lower bound charges CostScale for every
// remaining planar step, and a cheaper non-preferred step would make
// that bound inadmissible. The zero block is invalid too. Config
// applies the zero → DefaultParams rule before New validates.
func (p Params) Validate() error {
	fields := [...]struct {
		name string
		v    int64
	}{
		{"alpha", p.Alpha}, {"amc", p.AMC}, {"beta", p.Beta}, {"gamma", p.Gamma},
		{"via_cost", p.ViaCost}, {"non_pref_mul", p.NonPrefMul},
		{"non_pref_turn_cost", p.NonPrefTurnCost},
		{"usage_penalty", p.UsagePenalty}, {"hist_inc", p.HistInc},
	}
	for _, f := range fields {
		if f.v < 0 || f.v > MaxParam {
			return fmt.Errorf("%w: %s = %d, want 0..%d", ErrInvalidParams, f.name, f.v, MaxParam)
		}
	}
	if p.NonPrefMul < 1 {
		return fmt.Errorf("%w: non_pref_mul = %d, want >= 1", ErrInvalidParams, p.NonPrefMul)
	}
	return nil
}

// QueueKind is the type of the ignored Config.Queue field. The search
// has one priority queue, the Dial bucket ring (bucketq.go).
type QueueKind uint8

// TopologyKind selects how a multi-pin net is decomposed into two-pin
// connections before the search realizes them.
type TopologyKind uint8

const (
	// SteinerTopology (the default) decomposes each k-pin net with the
	// internal/steiner rectilinear Steiner tree generator: a
	// deterministic MST plus iterated 1-Steiner Hanan refinement, routed
	// segment by segment with the net's existing wires as free trunk.
	SteinerTopology TopologyKind = iota
	// StarTopology is the legacy greedy order: connect the unconnected
	// pin nearest to the routed component, repeatedly. Kept as the
	// deterministic fallback when a Steiner segment cannot be realized,
	// and as a differential-testing baseline.
	StarTopology
)

// String implements fmt.Stringer ("steiner"/"star").
func (k TopologyKind) String() string {
	if k == StarTopology {
		return "star"
	}
	return "steiner"
}

// ParseTopologyKind reads a topology name: "steiner" or "star".
func ParseTopologyKind(s string) (TopologyKind, error) {
	switch s {
	case "steiner":
		return SteinerTopology, nil
	case "star":
		return StarTopology, nil
	}
	return SteinerTopology, fmt.Errorf("unknown topology %q (want steiner or star)", s)
}

// MarshalJSON encodes the topology by name so specs carrying it stay
// human-readable.
func (k TopologyKind) MarshalJSON() ([]byte, error) {
	if k > StarTopology {
		return nil, fmt.Errorf("cannot marshal TopologyKind(%d)", uint8(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the topology name or the raw numeric value.
func (k *TopologyKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		switch s {
		case "steiner":
			*k = SteinerTopology
		case "star":
			*k = StarTopology
		default:
			return fmt.Errorf("topology: want \"steiner\" or \"star\", got %q", s)
		}
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil || n > uint8(StarTopology) {
		return fmt.Errorf("topology: want \"steiner\", \"star\" or 0-1, got %s", b)
	}
	*k = TopologyKind(n)
	return nil
}

// Config selects the SADP process and which considerations the router
// applies — the four experiment columns of Tables III/IV.
type Config struct {
	// Scheme is the SADP color pre-assignment (SIM or SID).
	Scheme coloring.Scheme
	// ConsiderDVI enables the BDC/AMC/CDC cost assignment (§III-B).
	ConsiderDVI bool
	// ConsiderTPL enables the TPLC cost, the via-layer TPL violation
	// removal R&R (§III-C) and the 3-colorability check (§III-D).
	ConsiderTPL bool
	// Params are the cost parameters; zero value means DefaultParams.
	Params Params
	// Deprecated: ignored; perfbench still names it.
	Queue QueueKind
	// Topology selects the multi-pin decomposition. The zero value is
	// the Steiner tree generator; StarTopology restores the greedy
	// nearest-pin order, which changes routed geometry on nets with
	// three or more pins.
	Topology TopologyKind
	// Seed drives deterministic tie-breaking choices.
	Seed int64
	// Deprecated: ignored; perfbench still names it.
	Workers int
	// Arena, when non-nil, recycles router memory across runs: New
	// rebinds the arena's previously Released router in place when the
	// grid shape matches, instead of allocating the full per-grid state
	// again. Routing output is bit-identical with or without an arena.
	// One arena per worker goroutine; see Arena.
	Arena *Arena
	// Cancel, when non-nil, aborts the run cooperatively: the router
	// polls it at batch and iteration boundaries (per batch in the
	// initial phase and in each congestion round, per rip-up round
	// afterwards) and returns ErrCanceled once it is closed. Wire a
	// context's Done() channel here to bound a run.
	Cancel <-chan struct{}
	// TPLBudget, when positive, bounds the wall-clock time of the TPL
	// violation-removal phase (measured from the phase's start). On
	// expiry the phase degrades instead of running to convergence: it
	// still resolves congestion (a congested solution is shorted and
	// never acceptable) but stops FVP rip-up work, returns the
	// best-so-far solution, and reports the unresolved window count in
	// Stats.RemainingFVPs with Stats.TPLDegraded set. The follow-up
	// 3-colorability pass is skipped on a degraded run (its guarantee
	// is moot while FVPs remain). Zero means run to convergence.
	TPLBudget time.Duration
}

func (c Config) withDefaults() Config {
	if c.Params == (Params{}) {
		c.Params = DefaultParams()
	}
	return c
}

// searchMargin is the initial bounding-box margin of the windowed
// search; the window doubles until a path is found.
const searchMargin = 12

// maxRRIters caps negotiated-congestion rip-up-and-reroute iterations,
// in proportion to the net count.
func (rt *Router) maxRRIters() int { return 40*len(rt.nl.Nets) + 2000 }

// maxTPLRRIters caps TPL-violation-removal iterations.
func (rt *Router) maxTPLRRIters() int { return 20*len(rt.nl.Nets) + 2000 }
