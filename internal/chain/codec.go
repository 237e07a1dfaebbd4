package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"contractstm/internal/codec"
)

// Wire serialization for blocks, suitable for persistence and for
// shipping blocks between nodes: the flat binary codec (flat.go,
// internal/codec) — length-prefixed little-endian fields, no reflection,
// single-buffer encodes. It is the only format; a stream that does not
// open with the flat header (for example a gob-era peer's) fails with
// codec.ErrFormat.
//
// Integrity is independent of encoding: after decoding, callers verify
// header commitments (VerifyCommitments) and re-validate execution, so a
// corrupted or malicious stream can at worst produce a block that is then
// rejected.

// MaxWireBlock bounds one block's wire encoding; the node's block upload
// handler, the cluster peer client and the persistence WAL all cap reads
// at this, so the serve, fetch and recovery sides can never disagree on
// what fits. DecodeBlock additionally enforces the bound itself, so a
// caller that forgets the LimitReader still cannot be fed an unbounded
// stream.
const MaxWireBlock = 64 << 20

// ErrTooLarge reports a wire block whose declared size exceeds
// MaxWireBlock.
var ErrTooLarge = errors.New("chain: wire block exceeds MaxWireBlock")

// EncodeBlock writes b to w in wire format (flat codec).
func EncodeBlock(w io.Writer, b Block) error {
	buf := codec.GetBuffer()
	defer buf.Release()
	enc, err := AppendBlockWire(buf.B, b)
	if err != nil {
		return err
	}
	buf.B = enc
	if _, err := w.Write(enc); err != nil {
		return fmt.Errorf("chain: encode block %d: %w", b.Header.Number, err)
	}
	return nil
}

// MarshalBlock renders b as bytes. The encode lands in a pooled scratch
// buffer and is copied out exactly once at its final size, so the append
// path never reallocates mid-encode.
func MarshalBlock(b Block) ([]byte, error) {
	buf := codec.GetBuffer()
	defer buf.Release()
	enc, err := AppendBlockWire(buf.B, b)
	if err != nil {
		return nil, err
	}
	buf.B = enc
	out := make([]byte, len(enc))
	copy(out, enc)
	return out, nil
}

// DecodeBlock reads one block from r and verifies its header commitments
// against the decoded body; it does NOT re-execute (that is the
// validator's job). Input is untrusted: the declared size is checked
// against MaxWireBlock before anything is allocated, and any malformed
// input — truncated, version-skewed, corrupted — returns an error, never
// panics. The persistence WAL feeds disk bytes straight into this path on
// crash recovery.
func DecodeBlock(r io.Reader) (Block, error) {
	return decodeBlockCapped(r, MaxWireBlock)
}

// decodeBlockCapped is DecodeBlock with an explicit byte budget (tests
// exercise the budget without building a 64 MB block).
func decodeBlockCapped(r io.Reader, budget int64) (Block, error) {
	var hdr [codec.HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Block{}, fmt.Errorf("chain: decode block header: %w", err)
	}
	if hdr[0] != codec.Magic {
		return Block{}, fmt.Errorf("chain: decode block: %w: magic 0x%02x, want 0x%02x",
			codec.ErrFormat, hdr[0], codec.Magic)
	}
	total := int64(codec.HeaderLen) + int64(binary.LittleEndian.Uint32(hdr[3:]))
	if total > budget {
		return Block{}, fmt.Errorf("chain: decode block: %d-byte block exceeds %d-byte cap: %w",
			total, budget, ErrTooLarge)
	}
	payload := make([]byte, total)
	copy(payload, hdr[:])
	if _, err := io.ReadFull(r, payload[codec.HeaderLen:]); err != nil {
		return Block{}, fmt.Errorf("chain: decode block body: %w", err)
	}
	return unmarshalVerified(payload)
}

// UnmarshalBlock parses bytes produced by MarshalBlock and verifies the
// block's header commitments, like DecodeBlock.
func UnmarshalBlock(data []byte) (Block, error) {
	if int64(len(data)) > MaxWireBlock {
		return Block{}, fmt.Errorf("chain: decode block: %d-byte block exceeds %d-byte cap: %w",
			len(data), int64(MaxWireBlock), ErrTooLarge)
	}
	return unmarshalVerified(data)
}

func unmarshalVerified(payload []byte) (Block, error) {
	b, err := decodeFlatBlock(payload)
	if err != nil {
		return Block{}, fmt.Errorf("chain: decode block: %w", err)
	}
	if err := VerifyCommitments(b); err != nil {
		return Block{}, fmt.Errorf("chain: decoded block fails commitments: %w", err)
	}
	return b, nil
}
