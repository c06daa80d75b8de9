package verify

// The map-based reference checker, for the external test package: the
// differential tests build their fixtures with internal/bench, which
// imports this package, so they cannot live inside it.
var (
	RefRouting  = refRouting
	RefSolution = refSolution
	RefMetrics  = refMetrics
)
