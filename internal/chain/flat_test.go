package chain

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"contractstm/internal/codec"
	"contractstm/internal/types"
)

func TestFlatIsDefaultWireFormat(t *testing.T) {
	data, err := MarshalBlock(sealSample(2, types.HashString("s")))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if data[0] != codec.Magic || data[1] != codec.KindBlock {
		t.Fatalf("MarshalBlock emitted header % x, want flat magic and block kind", data[:2])
	}
}

func TestErrTooLargeReportsObservedSize(t *testing.T) {
	data, err := MarshalBlock(sealSample(4, types.HashString("s")))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	budget := int64(len(data)) / 2
	_, err = decodeBlockCapped(bytes.NewReader(data), budget)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	// The error must name the block's actual size, not just the cap.
	if want := fmt.Sprintf("%d-byte block", len(data)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not report the observed size %q", err, want)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%d-byte cap", budget)) {
		t.Fatalf("error %q does not report the cap", err)
	}

	// The []byte path reports the same way.
	big := make([]byte, MaxWireBlock+1)
	_, err = UnmarshalBlock(big)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize buffer: got %v, want ErrTooLarge", err)
	}
	if want := fmt.Sprintf("%d-byte block", len(big)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not report the observed size %q", err, want)
	}
}

// FuzzCodecBlock pins the flat codec's round-trip identity: any payload
// that decodes must re-encode to the identical bytes, and decoding must
// never panic on arbitrary input.
func FuzzCodecBlock(f *testing.F) {
	seed := func(n int) []byte {
		b := sealSample(n, types.HashString("s"))
		data, err := MarshalBlock(b)
		if err != nil {
			f.Fatalf("marshal: %v", err)
		}
		return data
	}
	f.Add(seed(1))
	f.Add(seed(6))
	allArgs := sealSample(1, types.HashString("s"))
	allArgs.Calls[0].Args = []any{uint64(7), int(-3), true, "text",
		types.AddressFromUint64(9), types.HashString("h"), types.Amount(12)}
	allArgs = Seal(GenesisHeader(types.HashString("g")), allArgs.Calls, allArgs.Receipts,
		allArgs.Schedule, allArgs.Profiles, allArgs.Header.StateRoot)
	if data, err := MarshalBlock(allArgs); err == nil {
		f.Add(data)
	}
	f.Add([]byte{codec.Magic})
	f.Add([]byte{codec.Magic, codec.KindBlock, codec.Version, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeFlatBlock(data)
		if err != nil {
			return
		}
		re, err := AppendBlockWire(nil, b)
		if err != nil {
			t.Fatalf("decoded block failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, re)
		}
	})
}
