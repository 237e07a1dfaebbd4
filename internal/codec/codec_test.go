package codec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	buf, start := AppendHeader(nil, KindBlock)
	buf = AppendU64(buf, 42)
	buf = AppendString(buf, "hello")
	FinishHeader(buf, start)

	body, err := ParseHeader(buf, KindBlock)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	r := NewReader(body)
	if v, err := r.U64(); err != nil || v != 42 {
		t.Fatalf("U64 = %d, %v", v, err)
	}
	if s, err := r.String(); err != nil || s != "hello" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good, start := AppendHeader(nil, KindBlock)
	FinishHeader(good, start)

	cases := map[string][]byte{
		"short":      good[:3],
		"bad magic":  append([]byte{0x00}, good[1:]...),
		"bad kind":   {Magic, KindSnapshot, Version, 0, 0, 0, 0},
		"bad ver":    {Magic, KindBlock, 99, 0, 0, 0, 0},
		"bad length": {Magic, KindBlock, Version, 5, 0, 0, 0},
		"trailing":   append(append([]byte(nil), good...), 0xAA),
	}
	for name, payload := range cases {
		if _, err := ParseHeader(payload, KindBlock); err == nil {
			t.Errorf("%s: ParseHeader accepted %x", name, payload)
		}
	}
}

func TestReaderBounds(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if _, err := r.U64(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("U64 on 3 bytes: %v", err)
	}
	r = NewReader([]byte{2})
	if _, err := r.Bool(); !errors.Is(err, ErrFormat) {
		t.Fatalf("Bool(2): %v", err)
	}
	// A declared count that cannot fit must be refused before allocation.
	huge := AppendU32(nil, 0xFFFFFFFF)
	r = NewReader(huge)
	if _, err := r.Count(4); !errors.Is(err, ErrFormat) {
		t.Fatalf("Count(huge): %v", err)
	}
}

// TestMagicNeverStartsGob pins the refusal invariant: no gob stream can
// begin with the flat magic byte, so old gob bytes fail ParseHeader. Gob frames each message with an
// unsigned varint byte count whose first byte is in [0x01,0x7F] or
// [0xF8,0xFF]; Magic sits in the unreachable middle band.
func TestMagicNeverStartsGob(t *testing.T) {
	if Magic >= 0x01 && Magic <= 0x7F || Magic >= 0xF8 {
		t.Fatalf("Magic 0x%02x lies inside gob's reachable first-byte range", Magic)
	}
	samples := []any{uint32(1), "x", []byte{0xF0, 0xF0}, struct{ A, B uint64 }{1, 2}}
	for _, v := range samples {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatalf("gob encode %T: %v", v, err)
		}
		if buf.Bytes()[0] == Magic {
			t.Fatalf("gob stream for %T begins with the flat magic byte", v)
		}
		if _, err := ParseHeader(buf.Bytes(), KindBlock); !errors.Is(err, ErrFormat) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("gob stream for %T: ParseHeader = %v, want a refusal", v, err)
		}
	}
}

func TestBufferPoolReuse(t *testing.T) {
	b := GetBuffer()
	b.B = append(b.B, 1, 2, 3)
	b.Release()
	c := GetBuffer()
	if len(c.B) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(c.B))
	}
	c.Release()
}
