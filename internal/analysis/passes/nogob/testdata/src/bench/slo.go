// slo.go is the bench package's gob yardstick: its import must not fire.
package bench

import (
	"bytes"
	"encoding/gob"
)

// Frame is what the yardstick times.
type Frame struct{ N int }

// EncodeFrame gob-encodes f for comparison with the flat codec.
func EncodeFrame(f Frame) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(f)
	return buf.Bytes(), err
}
