// A gob import outside package bench fires, whatever the file name.
package chain

import (
	"bytes"
	"encoding/gob" // want `encoding/gob import in chain/codec.go`
)

// Frame is a wire frame.
type Frame struct{ N int }

// DecodeFrame decodes a frame the forbidden way.
func DecodeFrame(b []byte) (Frame, error) {
	var f Frame
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&f)
	return f, err
}
