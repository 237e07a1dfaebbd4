// Package nogob bans encoding/gob.
//
// Every block, WAL record, snapshot, genesis marker and mempool save is
// encoded with the flat codec (internal/codec). gob is reflection-driven
// and its output is not a stable function of the value alone (type
// registration order leaks into the stream), so it has no place on any
// consensus or persistence surface. The one file allowed to import it is
// the SLO bench's stdlib yardstick (internal/bench/slo.go), which times
// gob against the flat codec for the ratio gates in
// bench/slo_thresholds.json.
package nogob

import (
	"path/filepath"
	"strconv"

	"contractstm/internal/analysis"
)

// Analyzer is the nogob pass.
var Analyzer = &analysis.Analyzer{
	Name: "nogob",
	Doc:  "forbid encoding/gob imports outside the SLO bench's gob yardstick",
	Run:  run,
}

// banned is the import path the pass forbids.
const banned = `encoding/gob`

// yardstick names the one file allowed to import encoding/gob: package
// path base and file base name.
const yardstickPkg, yardstickFile = "bench", "slo.go"

func run(pass *analysis.Pass) error {
	for _, f := range pass.SourceFiles() {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path != banned {
				continue
			}
			file := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			if pass.PkgBase() == yardstickPkg && file == yardstickFile {
				continue
			}
			pass.Reportf(imp.Pos(),
				"encoding/gob import in %s/%s: encode with internal/codec; gob is allowed only in the bench/slo.go yardstick",
				pass.PkgBase(), file)
		}
	}
	return nil
}
