// Package stress drives the full routing pipeline with randomized
// netlists and checks every result with the independent
// internal/verify checker: routing geometry, SADP turn legality, via
// manufacturability, both DVI solvers on the same instance, and the
// heuristic-never-beats-ILP invariant. On a failure it shrinks the
// netlist to a locally minimal reproducer with a delta-debugging loop
// and can dump it in netlist text, JSON and go-fuzz corpus formats.
//
// The harness is deterministic for a given seed (the budget decides
// only how many trials run), so a CI failure reproduces locally with
// the same -seed.
package stress

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/coloring"
	"repro/internal/dvi"
	"repro/internal/netlist"
	"repro/internal/verify"
)

// Config parameterizes a stress run.
type Config struct {
	// Seed drives circuit generation; equal seeds replay the same
	// trial sequence.
	Seed int64
	// Budget bounds the run's wall clock. At least one trial always
	// runs. Zero means a single trial.
	Budget time.Duration
	// MaxTrials additionally caps the trial count (0 = no cap).
	MaxTrials int
	// ShrinkBudget caps pipeline re-runs during reproducer
	// minimization (default 200).
	ShrinkBudget int
	// MaxPins, when positive, makes every trial a multi-pin circuit:
	// pin counts are drawn uniformly from [2, MaxPins], so Steiner
	// decomposition, trunk sharing and k-pin verification are all on
	// the hot path. Zero keeps the classic 2-pin-heavy mix.
	MaxPins int
	// Logf, when set, receives one line per trial.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 200
	}
	return c
}

// Result summarizes a finished run.
type Result struct {
	// Trials is the number of random circuits exercised.
	Trials int
	// Checks counts individual verified pipeline results (two SADP
	// modes × two DVI solvers per trial).
	Checks int
}

// Failure describes one reproducible pipeline failure.
type Failure struct {
	// Trial is the 0-based index of the failing trial.
	Trial int
	// Seed replays the run that found it.
	Seed int64
	// MaxPins is the multi-pin knob the run used (0 = classic mix);
	// replaying needs the same value to regenerate the trial.
	MaxPins int
	// Netlist is the shrunken reproducer.
	Netlist *netlist.Netlist
	// Mode is the SADP mode the failure occurred under.
	Mode coloring.SADPType
	// Stage names the failing check (route, verify-routing,
	// metrics, verify-heur, verify-ilp, heur-vs-ilp).
	Stage string
	// Report holds the verifier's findings when the stage is a
	// verification (nil for pipeline errors).
	Report *verify.Report
	// Err is the pipeline or verdict error.
	Err error
}

func (f *Failure) Error() string {
	return fmt.Sprintf("stress: trial %d (seed %d, %v, stage %s, %d nets on %dx%d): %v",
		f.Trial, f.Seed, f.Mode, f.Stage, len(f.Netlist.Nets), f.Netlist.W, f.Netlist.H, f.Err)
}

// Run exercises random circuits until the budget or trial cap is
// exhausted, returning the first (shrunken) failure, if any.
func Run(cfg Config) (Result, *Failure) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	deadline := time.Now().Add(cfg.Budget)
	var res Result
	for {
		ckt := randomCircuit(rng, res.Trials, cfg.MaxPins)
		nl := bench.Generate(ckt)
		for _, mode := range []coloring.SADPType{coloring.SIM, coloring.SID} {
			if fail := checkPipeline(nl, mode); fail != nil {
				fail.Trial = res.Trials
				fail.Seed = cfg.Seed
				fail.MaxPins = cfg.MaxPins
				if cfg.Logf != nil {
					cfg.Logf("trial %d FAILED (%v, stage %s); shrinking %d nets",
						res.Trials, mode, fail.Stage, len(nl.Nets))
				}
				fail.Netlist = shrinkNetlist(nl, func(cand *netlist.Netlist) bool {
					return checkPipeline(cand, mode) != nil
				}, cfg.ShrinkBudget)
				// Re-derive the report on the shrunken netlist so the
				// dumped failure matches the dumped reproducer.
				if f2 := checkPipeline(fail.Netlist, mode); f2 != nil {
					fail.Stage, fail.Report, fail.Err = f2.Stage, f2.Report, f2.Err
				}
				return res, fail
			}
			res.Checks += 2 // heuristic and ILP results both verified
		}
		res.Trials++
		if cfg.Logf != nil {
			cfg.Logf("trial %d ok: %d nets on %dx%d", res.Trials-1, len(nl.Nets), nl.W, nl.H)
		}
		if cfg.MaxTrials > 0 && res.Trials >= cfg.MaxTrials {
			return res, nil
		}
		if !time.Now().Before(deadline) {
			return res, nil
		}
	}
}

// randomCircuit draws a small random circuit: large enough to exercise
// vias, turns and DVI interactions, small enough that the ILP solves
// quickly and a failure shrinks fast.
func randomCircuit(rng *rand.Rand, trial int, maxPins int) bench.Circuit {
	w := 24 + rng.Intn(40)
	h := 24 + rng.Intn(40)
	nets := 4 + rng.Intn(24)
	if maxPins > 0 {
		// Multi-pin nets spread further; keep density routable.
		nets = 4 + rng.Intn(16)
	}
	return bench.Circuit{
		Name:    "stress" + strconv.Itoa(trial),
		Nets:    nets,
		W:       w,
		H:       h,
		Seed:    rng.Int63(),
		MaxPins: maxPins,
	}
}

// checkPipeline runs the full flow on nl in one SADP mode and verifies
// every result, returning a Failure describing the first broken check.
// The exact DVI solve stops at bench.DeterministicILPNodeLimit, never
// a clock, so the outcome does not depend on the machine.
func checkPipeline(nl *netlist.Netlist, mode coloring.SADPType) *Failure {
	fail := func(stage string, rep *verify.Report, err error) *Failure {
		return &Failure{Netlist: nl, Mode: mode, Stage: stage, Report: rep, Err: err}
	}
	spec := bench.RunSpec{
		Scheme: mode, ConsiderDVI: true, ConsiderTPL: true, Method: bench.NoDVI,
	}
	row, art, err := bench.Run(nl, spec)
	if err != nil {
		return fail("route", nil, err)
	}
	routes := art.Router.Routes()
	opt := verify.Options{SADP: mode, CheckTPL: true}
	if rep := verify.Routing(nl, routes, opt); !rep.Ok() {
		return fail("verify-routing", rep, rep.Err())
	}
	if wl, vias := verify.Metrics(routes); wl != row.WL || vias != row.Vias {
		return fail("metrics", nil, fmt.Errorf(
			"independent recount wl=%d vias=%d, reported wl=%d vias=%d", wl, vias, row.WL, row.Vias))
	}

	in := dvi.NewInstance(art.Router.Grid(), routes)
	heur := in.SolveHeuristic(dvi.DefaultHeurParams())
	if rep := verify.Solution(nl, routes, in, heur, opt); !rep.Ok() {
		return fail("verify-heur", rep, rep.Err())
	}
	ilp, err := in.SolveILP(dvi.ILPOptions{NodeLimit: bench.DeterministicILPNodeLimit})
	if err != nil {
		return fail("ilp", nil, err)
	}
	if rep := verify.Solution(nl, routes, in, ilp, opt); !rep.Ok() {
		return fail("verify-ilp", rep, rep.Err())
	}
	if worseObjective(ilp, heur) {
		return fail("heur-vs-ilp", nil, fmt.Errorf(
			"ILP uncolorable %d, inserted %d; heuristic uncolorable %d, inserted %d on the same instance",
			ilp.Uncolorable, ilp.InsertedCount, heur.Uncolorable, heur.InsertedCount))
	}
	return nil
}

// worseObjective reports whether DVI solution a scores below b under
// the exact solve's objective: fewer uncolorable vias first, then more
// insertions. The exact solve starts from the heuristic's solution, so
// it may trade insertions only for uncolorable vias.
func worseObjective(a, b *dvi.Solution) bool {
	return a.Uncolorable > b.Uncolorable ||
		a.Uncolorable == b.Uncolorable && a.InsertedCount < b.InsertedCount
}

// WriteFiles dumps the reproducer into dir: the netlist in text format
// (repro.net), the failure description (repro.txt) and a go-fuzz
// corpus entry for netlist.FuzzRead (repro.corpus), creating dir if
// needed. Returns the netlist path.
func (f *Failure) WriteFiles(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	netPath := filepath.Join(dir, "repro.net")
	nf, err := os.Create(netPath)
	if err != nil {
		return "", err
	}
	werr := f.Netlist.Write(nf)
	if cerr := nf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}

	desc := f.Error() + "\n"
	if f.Report != nil {
		for _, v := range f.Report.Violations {
			desc += v.String() + "\n"
		}
	}
	replay := fmt.Sprintf("go run ./cmd/stress -seed %d", f.Seed)
	if f.MaxPins > 0 {
		replay += fmt.Sprintf(" -maxpins %d", f.MaxPins)
	}
	desc += "\nreplay: " + replay + "\n"
	if err := os.WriteFile(filepath.Join(dir, "repro.txt"), []byte(desc), 0o644); err != nil {
		return "", err
	}

	raw, err := os.ReadFile(netPath)
	if err != nil {
		return "", err
	}
	corpus := "go test fuzz v1\nstring(" + strconv.Quote(string(raw)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, "repro.corpus"), []byte(corpus), 0o644); err != nil {
		return "", err
	}
	return netPath, nil
}
