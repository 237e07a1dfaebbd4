package storage

import (
	"encoding/binary"
	"fmt"

	"contractstm/internal/types"
)

// Encoder lets struct values stored in boosted objects participate in state
// commitments. Contract struct types (for example Ballot's Voter) implement
// it with a canonical, deterministic byte encoding.
type Encoder interface {
	EncodeValue() []byte
}

// encodeValue canonically encodes the value kinds contracts may store:
// nil, bool, uint64, int (non-negative), string, types.Address, types.Hash,
// types.Amount, and any Encoder. Each encoding is tagged with a kind byte
// so values of different types never collide.
func encodeValue(v any) ([]byte, error) { return appendValue(nil, v) }

// appendValue appends encodeValue's encoding of v to dst.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, 0x00), nil
	case bool:
		if x {
			return append(dst, 0x01, 1), nil
		}
		return append(dst, 0x01, 0), nil
	case uint64:
		return appendUint(dst, 0x02, x), nil
	case int:
		if x < 0 {
			return nil, fmt.Errorf("storage: negative int value %d not supported", x)
		}
		return appendUint(dst, 0x03, uint64(x)), nil
	case string:
		return append(append(dst, 0x04), x...), nil
	case types.Address:
		return append(append(dst, 0x05), x[:]...), nil
	case types.Hash:
		return append(append(dst, 0x06), x[:]...), nil
	case types.Amount:
		return appendUint(dst, 0x07, uint64(x)), nil
	case Encoder:
		return append(append(dst, 0x08), x.EncodeValue()...), nil
	default:
		return nil, fmt.Errorf("storage: cannot encode value of type %T", v)
	}
}

func appendUint(dst []byte, tag byte, x uint64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, tag), x)
}

// Key helpers: boosted map keys are strings; contracts use these to derive
// canonical keys from domain types.

// KeyAddr derives a map key from an address.
func KeyAddr(a types.Address) string { return string(a[:]) }

// KeyHash derives a map key from a hash.
func KeyHash(h types.Hash) string { return string(h[:]) }

// KeyUint derives a map key from an integer (big-endian, fixed width, so
// lexicographic order equals numeric order).
func KeyUint(n uint64) string {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n)
	return string(buf[:])
}
