package ilp

// RefSolve is the generic branch and bound for the external test
// package, whose differential builds its models with internal/dvi,
// which imports this package.
var RefSolve = refSolve
