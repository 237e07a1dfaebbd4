// report.go is another file of the bench package: only slo.go may
// import gob, so this import fires.
package bench

import (
	"bytes"
	"encoding/gob" // want `encoding/gob import in bench/report.go`
)

// DecodeFrame decodes a frame the forbidden way.
func DecodeFrame(b []byte) (Frame, error) {
	var f Frame
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&f)
	return f, err
}
