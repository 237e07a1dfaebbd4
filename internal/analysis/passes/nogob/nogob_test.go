package nogob_test

import (
	"testing"

	"contractstm/internal/analysis/analysistest"
	"contractstm/internal/analysis/passes/nogob"
)

// TestNogob: the bench yardstick file imports gob silently; any other
// file — in the bench package or elsewhere — fires.
func TestNogob(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), nogob.Analyzer, "bench")
	analysistest.Run(t, analysistest.TestData(), nogob.Analyzer, "chain")
}
