package dvi

// The references for the external test package: the differential
// tests build their instances with internal/bench, which imports this
// package, so they cannot live inside it.
var (
	RefSolveHeuristic = refSolveHeuristic
	RefValidate       = refValidate
)

// The exact search's test hooks for the external test package.
var (
	RefSolveExhaustive = refSolveExhaustive
	DecodeInstance     = decodeInstance
	ExactFuzzSeeds     = exactFuzzSeeds
)

// Components lists the instance's conflict components, each in
// increasing via order, as SolveILP searches them.
func Components(in *Instance) [][]int32 {
	if len(in.Vias) == 0 {
		return nil
	}
	return newExactSearch(in).components()
}
