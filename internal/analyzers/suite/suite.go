// Package suite registers the sadplint analyzers. cmd/sadplint and
// the repo-wide cleanliness test both consume this list, so adding an
// analyzer here wires it into `sadplint ./...` (and so `make lint` and
// CI) and `go test ./...` at once.
package suite

import (
	"repro/internal/analyzers/arenaesc"
	"repro/internal/analyzers/cancelpoll"
	"repro/internal/analyzers/detclock"
	"repro/internal/analyzers/detmap"
	"repro/internal/analyzers/hotalloc"
	"repro/internal/analyzers/lint"
	"repro/internal/analyzers/lockorder"
)

// Analyzers is the full sadplint suite.
var Analyzers = []*lint.Analyzer{
	detmap.Analyzer,
	detclock.Analyzer,
	cancelpoll.Analyzer,
	arenaesc.Analyzer,
	lockorder.Analyzer,
	hotalloc.Analyzer,
}
