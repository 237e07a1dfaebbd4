package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/codec"
	"contractstm/internal/types"
)

// TestGobSnapshotRefused: a snapshot in the gob envelope of earlier
// releases — what a gob-era fast-sync peer would serve — passes the
// frame check but fails DecodeSnapshot with codec.ErrFormat, instead of
// being misparsed.
func TestGobSnapshotRefused(t *testing.T) {
	_, snaps := makeBlocks(t, 1, 2)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(struct {
		Version uint32
		Header  chain.Header
		State   []byte
	}{1, snaps[0].Header, snaps[0].State}); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var wire bytes.Buffer
	if err := writeFrame(&wire, payload.Bytes()); err != nil {
		t.Fatalf("frame: %v", err)
	}
	if _, err := DecodeSnapshot(&wire); !errors.Is(err, codec.ErrFormat) {
		t.Fatalf("gob snapshot: got %v, want codec.ErrFormat", err)
	}
}

// TestGobGenesisMarkerRefused: a genesis marker in gob form — the
// identity file every gob-era data directory holds — makes EnsureGenesis
// fail with ErrLegacyDataDir, naming the directory.
func TestGobGenesisMarkerRefused(t *testing.T) {
	dir := t.TempDir()
	h := chain.GenesisHeader(types.HashString("legacy"))
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(h); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var marker bytes.Buffer
	if err := writeFrame(&marker, payload.Bytes()); err != nil {
		t.Fatalf("frame: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, genesisFile), marker.Bytes(), 0o644); err != nil {
		t.Fatalf("write marker: %v", err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	err = l.EnsureGenesis(h)
	if !errors.Is(err, ErrLegacyDataDir) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("gob marker: got %v, want ErrLegacyDataDir naming %s", err, dir)
	}
}

// TestSnapshotFlatDefault pins that newly written snapshots are flat and
// still round-trip.
func TestSnapshotFlatDefault(t *testing.T) {
	_, snaps := makeBlocks(t, 1, 2)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snaps[0]); err != nil {
		t.Fatalf("encode: %v", err)
	}
	payload := buf.Bytes()[frameHeaderLen:]
	if payload[0] != codec.Magic || payload[1] != codec.KindSnapshot {
		t.Fatalf("snapshot payload header % x, want flat magic and snapshot kind", payload[:2])
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Header != snaps[0].Header || !bytes.Equal(got.State, snaps[0].State) {
		t.Fatal("flat snapshot round trip changed contents")
	}
}

// FuzzCodecSnapshot pins the flat snapshot payload's round-trip identity:
// any payload that decodes must re-encode to the identical bytes, and
// decoding must never panic on arbitrary input.
func FuzzCodecSnapshot(f *testing.F) {
	mk := func(s Snapshot) []byte {
		dst, start := codec.AppendHeader(nil, codec.KindSnapshot)
		dst = appendSnapshotBody(dst, s)
		codec.FinishHeader(dst, start)
		return dst
	}
	f.Add(mk(Snapshot{}))
	f.Add(mk(Snapshot{
		Header: chain.Header{Number: 9, StateRoot: [32]byte{1, 2, 3}},
		State:  []byte("opaque storage bytes"),
	}))
	f.Add([]byte{codec.Magic, codec.KindSnapshot, codec.Version, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeFlatSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(mk(s), data) {
			t.Fatalf("re-encode differs for %x", data)
		}
	})
}
