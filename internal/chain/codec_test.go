package chain

import (
	"bytes"
	"strings"
	"testing"

	"contractstm/internal/types"
)

func TestBlockRoundTrip(t *testing.T) {
	orig := sealSample(6, types.HashString("state"))
	data, err := MarshalBlock(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalBlock(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Header.Hash() != orig.Header.Hash() {
		t.Fatal("header hash changed across round trip")
	}
	if len(got.Calls) != len(orig.Calls) || len(got.Profiles) != len(orig.Profiles) {
		t.Fatal("body sizes changed")
	}
	// Arguments (any-typed) must survive with their concrete types.
	if v, ok := got.Calls[2].Args[0].(uint64); !ok || v != 2 {
		t.Fatalf("arg round trip: %T %v", got.Calls[2].Args[0], got.Calls[2].Args[0])
	}
}

func TestBlockRoundTripAllArgTypes(t *testing.T) {
	b := sealSample(1, types.HashString("s"))
	b.Calls[0].Args = []any{
		uint64(7), int(3), true, "text",
		types.AddressFromUint64(9), types.HashString("h"), types.Amount(12),
	}
	// Re-seal: args changed the tx root.
	b = Seal(GenesisHeader(types.HashString("genesis")), b.Calls, b.Receipts, b.Schedule, b.Profiles, b.Header.StateRoot)
	data, err := MarshalBlock(b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalBlock(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	args := got.Calls[0].Args
	if args[0].(uint64) != 7 || args[1].(int) != 3 || args[2].(bool) != true ||
		args[3].(string) != "text" || args[4].(types.Address) != types.AddressFromUint64(9) ||
		args[5].(types.Hash) != types.HashString("h") || args[6].(types.Amount) != 12 {
		t.Fatalf("args = %#v", args)
	}
}

func TestDecodeBlockRejectsTamperedBody(t *testing.T) {
	b := sealSample(3, types.HashString("s"))
	b.Receipts[0].GasUsed++ // body no longer matches header
	data, err := MarshalBlock(b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if _, err := UnmarshalBlock(data); err == nil {
		t.Fatal("tampered block decoded without error")
	}
}

func TestDecodeBlockRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalBlock([]byte("not a block")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := UnmarshalBlock(nil); err == nil {
		t.Fatal("empty input decoded")
	}
}

// TestChainRoundTrip ships every block of a chain through the wire
// codec, as a syncing peer does, and rebuilds the chain from the decoded
// blocks: linkage and head hash survive.
func TestChainRoundTrip(t *testing.T) {
	c := New(types.HashString("genesis"))
	for i := 0; i < 3; i++ {
		n := 2 + i
		b := Seal(c.Head().Header, sampleCalls(n), sampleReceipts(n), sampleSchedule(n), sampleProfiles(n),
			types.HashString("s"+strings.Repeat("x", i)))
		if err := c.Append(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	genesis, _ := c.BlockAt(0)
	got := New(genesis.Header.StateRoot)
	for h := uint64(1); h < uint64(c.Length()); h++ {
		b, _ := c.BlockAt(h)
		var buf bytes.Buffer
		if err := EncodeBlock(&buf, b); err != nil {
			t.Fatalf("encode block %d: %v", h, err)
		}
		dec, err := DecodeBlock(&buf)
		if err != nil {
			t.Fatalf("decode block %d: %v", h, err)
		}
		if err := got.Append(dec); err != nil {
			t.Fatalf("append decoded block %d: %v", h, err)
		}
	}
	if got.Length() != c.Length() {
		t.Fatalf("length %d, want %d", got.Length(), c.Length())
	}
	if got.Head().Header.Hash() != c.Head().Header.Hash() {
		t.Fatal("head hash mismatch after round trip")
	}
}
