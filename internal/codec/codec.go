// Package codec provides the flat binary wire format primitives shared by
// the chain block codec, the persistence files and the storage snapshot
// codec: a pooled
// scratch buffer, little-endian append helpers, a bounds-checked reader,
// and the common format header (magic, kind, version, body length).
//
// The format is deliberately dumb: length-prefixed, little-endian, no
// reflection, no varints. Every encoder appends into a single contiguous
// buffer (usually pooled), every decoder walks a byte slice with explicit
// bounds checks and never panics on malformed input. Encoding the same
// value always produces the same bytes, so round-tripping is
// byte-identical — the property the fuzz harnesses pin.
//
// # Stream layout
//
// Every flat stream starts with a 7-byte header:
//
//	offset 0: Magic (0xF0)
//	offset 1: kind  (KindBlock, KindSnapshot, KindGenesis, KindPool,
//	          KindState)
//	offset 2: version (currently 1)
//	offset 3: uint32 little-endian body length
//	offset 7: body (exactly body-length bytes)
//
// Magic is chosen from the byte range [0x80, 0xF7] that no gob stream can
// begin with: gob frames every message with an unsigned varint byte count,
// whose first byte is either the count itself (0x01..0x7F) or the negated
// length of the count's big-endian bytes (0xF8..0xFF). Bytes written by
// the gob codec of earlier releases therefore always fail ParseHeader
// with ErrFormat: they are refused, never misparsed.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Magic is the first byte of every flat stream. See the package comment
// for why this byte can never begin a gob stream.
const Magic byte = 0xF0

// Stream kinds. A decoder checks the kind byte so a snapshot payload fed
// to the block decoder fails loudly instead of misparsing.
const (
	KindBlock    byte = 1
	KindSnapshot byte = 2
	// KindGenesis is a data directory's genesis identity marker.
	KindGenesis byte = 3
	// KindPool is the mempool save file.
	KindPool byte = 4
	// KindState is a storage snapshot's contents (contract.World state).
	KindState byte = 5
)

// Version is the current flat format version, bumped on any layout change.
const Version byte = 1

// HeaderLen is the byte length of the stream header.
const HeaderLen = 7

// Errors reported by the decoder primitives.
var (
	// ErrTruncated reports input that ends before the declared structure.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrFormat reports structurally invalid input: bad magic, wrong kind,
	// unsupported version, or a field value outside its domain.
	ErrFormat = errors.New("codec: invalid format")
)

// Buffer is a pooled scratch buffer for single-allocation encodes. Use
// Get/Release around an encode; the encoded bytes must be copied (or
// written out) before Release — holding b.B past Release aliases the next
// user's scratch space.
type Buffer struct {
	B []byte
}

var bufPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 4096)} },
}

// GetBuffer returns an empty pooled buffer.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release returns the buffer to the pool. The caller must not touch b or
// b.B afterwards.
func (b *Buffer) Release() {
	// Don't pool pathological one-off giants: a single 64 MB block would
	// otherwise pin 64 MB per P forever.
	if cap(b.B) > 8<<20 {
		b.B = nil
	}
	bufPool.Put(b)
}

// AppendHeader appends the 7-byte stream header with a zero body length
// and returns the extended slice plus the header's offset; FinishHeader
// patches the length once the body is appended.
func AppendHeader(dst []byte, kind byte) ([]byte, int) {
	start := len(dst)
	dst = append(dst, Magic, kind, Version, 0, 0, 0, 0)
	return dst, start
}

// FinishHeader patches the body length of the header at start, where the
// body is everything appended after the header.
func FinishHeader(buf []byte, start int) {
	binary.LittleEndian.PutUint32(buf[start+3:start+HeaderLen], uint32(len(buf)-start-HeaderLen))
}

// ParseHeader validates the header of a complete flat payload (magic,
// kind, version, and that the body length matches the remaining bytes
// exactly) and returns the body.
func ParseHeader(payload []byte, kind byte) ([]byte, error) {
	if len(payload) < HeaderLen {
		return nil, fmt.Errorf("%w: %d header bytes, need %d", ErrTruncated, len(payload), HeaderLen)
	}
	if payload[0] != Magic {
		return nil, fmt.Errorf("%w: magic 0x%02x, want 0x%02x", ErrFormat, payload[0], Magic)
	}
	if payload[1] != kind {
		return nil, fmt.Errorf("%w: stream kind %d, want %d", ErrFormat, payload[1], kind)
	}
	if payload[2] != Version {
		return nil, fmt.Errorf("%w: flat version %d, want %d", ErrFormat, payload[2], Version)
	}
	bodyLen := binary.LittleEndian.Uint32(payload[3:HeaderLen])
	if uint64(bodyLen) != uint64(len(payload)-HeaderLen) {
		return nil, fmt.Errorf("%w: declared body %d bytes, have %d", ErrFormat, bodyLen, len(payload)-HeaderLen)
	}
	return payload[HeaderLen:], nil
}

// Append helpers: little-endian, length-prefixed where variable.

// AppendU8 appends one byte.
func AppendU8(dst []byte, v byte) []byte { return append(dst, v) }

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendString appends a uint32 length prefix and the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uint32 length prefix and the raw bytes.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// Reader walks a flat body with explicit bounds checks. All methods
// return ErrTruncated-wrapping errors instead of panicking, so arbitrary
// (fuzzer, network, disk) input is safe to feed in.
type Reader struct {
	data []byte
	off  int
}

// NewReader returns a reader over body.
func NewReader(body []byte) *Reader { return &Reader{data: body} }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Done returns an error unless the input was consumed exactly. Decoders
// call it last so trailing garbage fails the decode — required for the
// re-encode-byte-identical property.
func (r *Reader) Done() error {
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrFormat, n)
	}
	return nil
}

// Take returns the next n bytes as a subslice of the input (zero-copy;
// copy before retaining past the input's lifetime).
func (r *Reader) Take(n int) ([]byte, error) {
	if n < 0 || r.Remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, r.Remaining())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// U8 reads one byte.
func (r *Reader) U8() (byte, error) {
	b, err := r.Take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Bool reads a strict bool: 0 or 1, anything else is ErrFormat (so a
// decoded value re-encodes to the identical byte).
func (r *Reader) Bool() (bool, error) {
	b, err := r.U8()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("%w: bool byte 0x%02x", ErrFormat, b)
	}
	return b == 1, nil
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	b, err := r.Take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() (uint64, error) {
	b, err := r.Take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// String reads a uint32-length-prefixed string.
func (r *Reader) String() (string, error) {
	b, err := r.lengthPrefixed()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Bytes reads a uint32-length-prefixed byte slice (copied, safe to
// retain).
func (r *Reader) Bytes() ([]byte, error) {
	b, err := r.lengthPrefixed()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

func (r *Reader) lengthPrefixed() ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	return r.Take(int(n))
}

// Count reads a uint32 element count and rejects counts that could not
// possibly fit in the remaining input given a minimum encoded size per
// element — the guard that keeps a fuzzer's 4-billion-element header from
// provoking a giant allocation.
func (r *Reader) Count(minElemSize int) (int, error) {
	n, err := r.U32()
	if err != nil {
		return 0, err
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if int64(n)*int64(minElemSize) > int64(r.Remaining()) {
		return 0, fmt.Errorf("%w: %d elements declared, %d bytes remain", ErrFormat, n, r.Remaining())
	}
	return int(n), nil
}
