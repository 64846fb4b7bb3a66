package errtaxonomy_test

import (
	"testing"

	"repro/internal/analysis/analysistestlite"
	"repro/internal/analysis/errtaxonomy"
)

func TestErrtaxonomy(t *testing.T) {
	analysistestlite.Run(t, errtaxonomy.Analyzer, "server", "server/httpd")
}
