package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"contractstm/internal/codec"
	"contractstm/internal/types"
)

// Snapshot serialization: a Snapshot's contents are positional (indexed by
// registration order), which is useless across process restarts, so the
// wire form pairs every object's contents with its name. Decoding checks
// each name against the decoding store's object at the same position —
// recovery requires the same genesis setup to have registered the same
// objects, and any mismatch is an error rather than silent state
// corruption.
//
// The encoding is flat and canonical: one codec stream (KindState) whose
// body is a u32 object count, then per object in registration order its
// name and contents. A Map writes a u32 entry count and its entries in
// ascending key order; an Array a u32 length and its elements; a Cell its
// one value. Every value is appendValue's kind tag followed by its
// payload — fixed-width kinds exactly as appendValue writes them, a
// string length-prefixed, and an Encoder struct as its registered name
// plus its length-prefixed EncodeValue bytes. Two stores holding the same
// state therefore encode to the same bytes, and any decoded input
// re-encodes to exactly the bytes it came from.

// valueTypes is the registry of Encoder struct types snapshots can carry.
var valueTypes = struct {
	sync.RWMutex
	names    map[reflect.Type]string
	decoders map[string]func([]byte) (Encoder, error)
}{
	names:    make(map[reflect.Type]string),
	decoders: make(map[string]func([]byte) (Encoder, error)),
}

// RegisterValueType registers decode as the inverse of T's EncodeValue,
// under a wire name unique to T, so snapshots holding T values (for
// example Ballot's Voter record) round-trip through EncodeSnapshot and
// DecodeSnapshot. Contract packages call it from init. Encoding a struct
// value whose type was never registered is an error; registering a type
// or a name twice panics.
func RegisterValueType[T Encoder](name string, decode func([]byte) (T, error)) {
	typ := reflect.TypeFor[T]()
	valueTypes.Lock()
	defer valueTypes.Unlock()
	if _, dup := valueTypes.names[typ]; dup {
		panic(fmt.Sprintf("storage: value type %v registered twice", typ))
	}
	if _, dup := valueTypes.decoders[name]; dup {
		panic(fmt.Sprintf("storage: value type name %q registered twice", name))
	}
	valueTypes.names[typ] = name
	valueTypes.decoders[name] = func(b []byte) (Encoder, error) {
		v, err := decode(b)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// appendStateValue appends v's snapshot encoding (see the layout above).
func appendStateValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		return codec.AppendString(append(dst, tagString), x), nil
	case Encoder:
		valueTypes.RLock()
		name, ok := valueTypes.names[reflect.TypeOf(x)]
		valueTypes.RUnlock()
		if !ok {
			return nil, fmt.Errorf("storage: value type %T is not registered (RegisterValueType)", v)
		}
		dst = codec.AppendString(append(dst, tagEncoder), name)
		return codec.AppendBytes(dst, x.EncodeValue()), nil
	default:
		return appendValue(dst, v)
	}
}

// readStateValue reads one value written by appendStateValue.
func readStateValue(r *codec.Reader) (any, error) {
	tag, err := r.U8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagBool:
		return r.Bool()
	case tagUint64:
		return readUint(r)
	case tagInt:
		v, err := readUint(r)
		if err == nil && v > math.MaxInt {
			return nil, fmt.Errorf("%w: int value %d out of range", codec.ErrFormat, v)
		}
		return int(v), err
	case tagString:
		return r.String()
	case tagAddress:
		raw, err := r.Take(types.AddressLen)
		if err != nil {
			return nil, err
		}
		return types.Address(raw), nil
	case tagHash:
		raw, err := r.Take(types.HashLen)
		if err != nil {
			return nil, err
		}
		return types.Hash(raw), nil
	case tagAmount:
		v, err := readUint(r)
		return types.Amount(v), err
	case tagEncoder:
		return readEncoder(r)
	default:
		return nil, fmt.Errorf("%w: value tag 0x%02x", codec.ErrFormat, tag)
	}
}

// readUint reads appendUint's fixed-width big-endian payload.
func readUint(r *codec.Reader) (uint64, error) {
	raw, err := r.Take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(raw), nil
}

func readEncoder(r *codec.Reader) (any, error) {
	name, err := r.String()
	if err != nil {
		return nil, err
	}
	raw, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	valueTypes.RLock()
	decode, ok := valueTypes.decoders[name]
	valueTypes.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: unregistered value type %q", codec.ErrFormat, name)
	}
	v, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %s value: %v", codec.ErrFormat, name, err)
	}
	// A decoder that accepts a non-canonical encoding would break the
	// byte-identical round trip; refuse such input here, once, for all
	// registered types.
	if !bytes.Equal(v.EncodeValue(), raw) {
		return nil, fmt.Errorf("%w: non-canonical %s value", codec.ErrFormat, name)
	}
	return v, nil
}

// EncodeSnapshot renders a snapshot taken from s as canonical flat bytes
// (object names paired with contents) for durable persistence.
func (s *Store) EncodeSnapshot(snap Snapshot) ([]byte, error) {
	s.mu.Lock()
	objs := append([]object(nil), s.objects...)
	s.mu.Unlock()
	if len(snap.contents) != len(objs) {
		return nil, fmt.Errorf("storage: snapshot has %d objects, store has %d", len(snap.contents), len(objs))
	}
	dst, start := codec.AppendHeader(nil, codec.KindState)
	dst = codec.AppendU32(dst, uint32(len(objs)))
	var err error
	for i, o := range objs {
		dst = codec.AppendString(dst, o.objectName())
		if dst, err = appendContent(dst, o, snap.contents[i]); err != nil {
			return nil, fmt.Errorf("storage: encode snapshot object %q: %w", o.objectName(), err)
		}
	}
	codec.FinishHeader(dst, start)
	return dst, nil
}

func appendContent(dst []byte, o object, content any) ([]byte, error) {
	var err error
	switch o.(type) {
	case *Map:
		m := content.(map[string]any)
		dst = codec.AppendU32(dst, uint32(len(m)))
		for _, k := range sortedKeys(m) {
			if dst, err = appendStateValue(codec.AppendString(dst, k), m[k]); err != nil {
				return nil, err
			}
		}
	case *Array:
		a := content.([]any)
		dst = codec.AppendU32(dst, uint32(len(a)))
		for _, v := range a {
			if dst, err = appendStateValue(dst, v); err != nil {
				return nil, err
			}
		}
	default:
		return appendStateValue(dst, content)
	}
	return dst, nil
}

// DecodeSnapshot parses bytes produced by EncodeSnapshot into a Snapshot
// aligned with s's current objects. The object sets must agree exactly,
// in registration order: a recovering process rebuilds its genesis world
// with the same deterministic setup, so any difference means the bytes
// belong to a different world.
func (s *Store) DecodeSnapshot(data []byte) (Snapshot, error) {
	body, err := codec.ParseHeader(data, codec.KindState)
	if err != nil {
		return Snapshot{}, fmt.Errorf("storage: decode snapshot: %w", err)
	}
	s.mu.Lock()
	objs := append([]object(nil), s.objects...)
	s.mu.Unlock()

	r := codec.NewReader(body)
	n, err := r.U32()
	if err != nil {
		return Snapshot{}, fmt.Errorf("storage: decode snapshot: %w", err)
	}
	if int(n) != len(objs) {
		return Snapshot{}, fmt.Errorf("storage: snapshot has %d objects, store has %d", n, len(objs))
	}
	snap := Snapshot{contents: make([]any, len(objs))}
	for i, o := range objs {
		name, err := r.String()
		if err != nil {
			return Snapshot{}, fmt.Errorf("storage: decode snapshot: %w", err)
		}
		if name != o.objectName() {
			return Snapshot{}, fmt.Errorf("storage: snapshot object %d is %q, store has %q", i, name, o.objectName())
		}
		if snap.contents[i], err = readContent(r, o); err != nil {
			return Snapshot{}, fmt.Errorf("storage: decode snapshot object %q: %w", name, err)
		}
	}
	if err := r.Done(); err != nil {
		return Snapshot{}, fmt.Errorf("storage: decode snapshot: %w", err)
	}
	return snap, nil
}

func readContent(r *codec.Reader, o object) (any, error) {
	switch o.(type) {
	case *Map:
		n, err := r.Count(4 + 1) // key length prefix + value tag
		if err != nil {
			return nil, err
		}
		m := make(map[string]any, n)
		prev := ""
		for i := 0; i < n; i++ {
			k, err := r.String()
			if err != nil {
				return nil, err
			}
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("%w: map keys out of order", codec.ErrFormat)
			}
			if m[k], err = readStateValue(r); err != nil {
				return nil, err
			}
			prev = k
		}
		return m, nil
	case *Array:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		a := make([]any, n)
		for i := range a {
			if a[i], err = readStateValue(r); err != nil {
				return nil, err
			}
		}
		return a, nil
	default:
		return readStateValue(r)
	}
}
