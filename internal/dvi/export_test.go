package dvi

// The references for the external test package: the differential
// tests build their instances with internal/bench, which imports this
// package, so they cannot live inside it.
var (
	RefSolveHeuristic = refSolveHeuristic
	RefValidate       = refValidate
)
