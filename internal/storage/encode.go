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

// Value kind tags: the first byte of every value encoding, shared by the
// state-commitment leaves (appendValue) and the snapshot encoding
// (appendStateValue), so values of different types never collide.
const (
	tagNil     byte = 0x00
	tagBool    byte = 0x01
	tagUint64  byte = 0x02
	tagInt     byte = 0x03
	tagString  byte = 0x04
	tagAddress byte = 0x05
	tagHash    byte = 0x06
	tagAmount  byte = 0x07
	tagEncoder byte = 0x08
)

// encodeValue canonically encodes the value kinds contracts may store:
// nil, bool, uint64, int (non-negative), string, types.Address, types.Hash,
// types.Amount, and any Encoder, each behind its kind tag.
func encodeValue(v any) ([]byte, error) { return appendValue(nil, v) }

// appendValue appends encodeValue's encoding of v to dst.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case bool:
		if x {
			return append(dst, tagBool, 1), nil
		}
		return append(dst, tagBool, 0), nil
	case uint64:
		return appendUint(dst, tagUint64, x), nil
	case int:
		if x < 0 {
			return nil, fmt.Errorf("storage: negative int value %d not supported", x)
		}
		return appendUint(dst, tagInt, uint64(x)), nil
	case string:
		return append(append(dst, tagString), x...), nil
	case types.Address:
		return append(append(dst, tagAddress), x[:]...), nil
	case types.Hash:
		return append(append(dst, tagHash), x[:]...), nil
	case types.Amount:
		return appendUint(dst, tagAmount, uint64(x)), nil
	case Encoder:
		return append(append(dst, tagEncoder), x.EncodeValue()...), nil
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
