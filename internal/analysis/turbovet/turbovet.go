// Package turbovet is the registry of the repo's custom go/analysis
// suite. cmd/turbo-vet wires All into a unitchecker so the suite runs
// under `go vet -vettool=...`; the per-analyzer tests import their
// analyzer directly.
package turbovet

import (
	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/chargepath"
	"repro/internal/analysis/errtaxonomy"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/snapshotdet"
)

// All lists every analyzer in the suite, in documentation order.
var All = []*analysis.Analyzer{
	chargepath.Analyzer,
	snapshotdet.Analyzer,
	lockorder.Analyzer,
	errtaxonomy.Analyzer,
}
