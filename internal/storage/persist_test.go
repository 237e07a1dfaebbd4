package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"contractstm/internal/codec"
	"contractstm/internal/types"
)

// record is a registered Encoder struct, like the contracts' Voter.
type record struct {
	N    uint64
	Flag bool
}

func (r record) EncodeValue() []byte {
	out := binary.BigEndian.AppendUint64(nil, r.N)
	if r.Flag {
		return append(out, 1)
	}
	return append(out, 0)
}

// unregistered is an Encoder struct nobody registered a decoder for.
type unregistered struct{}

func (unregistered) EncodeValue() []byte { return nil }

func init() {
	RegisterValueType("storage.record", func(b []byte) (record, error) {
		if len(b) != 9 {
			return record{}, fmt.Errorf("record is %d bytes", len(b))
		}
		return record{N: binary.BigEndian.Uint64(b), Flag: b[8] != 0}, nil
	})
}

// buildStore assembles a store with one of each object kind and some
// contents, bypassing the transactional layer (raw accessors are exact
// for quiescent state).
func buildStore(t testing.TB) (*Store, *Map, *Cell) {
	t.Helper()
	s := NewStore()
	m, err := NewMap(s, "t/map")
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	a, err := NewArray(s, "t/array")
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	c, err := NewCell(s, "t/cell", nil)
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	m.rawPut("balance", uint64(41))
	m.rawPut("owner", types.AddressFromUint64(9))
	m.rawPut("label", "hello")
	m.rawPut("record", record{N: 3, Flag: true})
	m.rawPut("count", 12)
	m.rawPut("root", types.HashString("r"))
	m.rawPut("price", types.Amount(5))
	m.rawPut("done", false)
	a.mu.Lock()
	a.raw = append(a.raw, uint64(7), nil, "x")
	a.mu.Unlock()
	return s, m, c
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	src, _, _ := buildStore(t)
	data, err := src.EncodeSnapshot(src.Snapshot())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	srcRoot, err := src.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}

	// A freshly built store (same genesis setup, empty-ish contents)
	// restores the encoded state and reaches the identical commitment.
	dst, dm, dc := buildStore(t)
	dm.rawPut("balance", uint64(999)) // diverge first
	dm.rawDelete("label")
	dc.rawWrite("junk")
	snap, err := dst.DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	dst.Restore(snap)
	dstRoot, err := dst.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	if dstRoot != srcRoot {
		t.Fatalf("restored root %s != source %s", dstRoot.Short(), srcRoot.Short())
	}
	// Nil contents survived (cell nil, array hole).
	if v := dc.rawRead(); v != nil {
		t.Fatalf("cell restored to %v, want nil", v)
	}
	if got, _ := dm.rawGet("balance"); got.(uint64) != 41 {
		t.Fatalf("balance restored to %v", got)
	}
}

func TestSnapshotDecodeRejectsForeignStore(t *testing.T) {
	src, _, _ := buildStore(t)
	data, err := src.EncodeSnapshot(src.Snapshot())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	other := NewStore()
	if _, err := NewMap(other, "different/map"); err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	if _, err := other.DecodeSnapshot(data); err == nil {
		t.Fatal("foreign snapshot decoded into a mismatched store")
	}

	// Same names but fewer objects: also a mismatch.
	subset := NewStore()
	if _, err := NewMap(subset, "t/map"); err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	if _, err := subset.DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), "objects") {
		t.Fatalf("subset store decode: %v", err)
	}
}

func TestSnapshotDecodeRejectsGarbage(t *testing.T) {
	s, _, _ := buildStore(t)
	if _, err := s.DecodeSnapshot([]byte("not gob")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := s.DecodeSnapshot(nil); err == nil {
		t.Fatal("empty input decoded")
	}
}

// TestSnapshotEncodeRejectsUnregisteredType: a struct value whose type
// registered no decoder could never be restored, so encoding refuses it.
func TestSnapshotEncodeRejectsUnregisteredType(t *testing.T) {
	s, m, _ := buildStore(t)
	m.rawPut("stray", unregistered{})
	if _, err := s.EncodeSnapshot(s.Snapshot()); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("encode with an unregistered value type: %v", err)
	}
}

// TestSnapshotDecodeRefusesGob: state bytes from a gob-era release fail
// with codec.ErrFormat rather than being misparsed.
func TestSnapshotDecodeRefusesGob(t *testing.T) {
	s, _, _ := buildStore(t)
	gobLike := []byte{0x0c, 0xff, 0x81, 0x02, 0x01, 0x02, 0xff, 0x82, 0x00, 0x01, 0xff, 0x80}
	if _, err := s.DecodeSnapshot(gobLike); !errors.Is(err, codec.ErrFormat) {
		t.Fatalf("gob bytes: got %v, want codec.ErrFormat", err)
	}
}

// FuzzStoreSnapshot: storage snapshot bytes reach a node from fast-sync
// peers, so decoding arbitrary input must never panic, and every input
// it accepts must re-encode to exactly the same bytes.
func FuzzStoreSnapshot(f *testing.F) {
	src, m, c := buildStore(f)
	full, err := src.EncodeSnapshot(src.Snapshot())
	if err != nil {
		f.Fatalf("encode: %v", err)
	}
	f.Add(full)
	m.rawDelete("record")
	c.rawWrite(types.AddressFromUint64(4))
	if alt, err := src.EncodeSnapshot(src.Snapshot()); err == nil {
		f.Add(alt)
	}
	f.Add(full[:len(full)/2])
	f.Add([]byte{codec.Magic, codec.KindState, codec.Version, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dst, _, _ := buildStore(t)
		snap, err := dst.DecodeSnapshot(data)
		if err != nil {
			return
		}
		re, err := dst.EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, re)
		}
	})
}
