package chain

import (
	"fmt"

	"contractstm/internal/codec"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// Flat block encoding: the wire format for blocks (see internal/codec for
// the stream header; DESIGN.md "Wire codec" for the full layout). The
// body after the 7-byte codec header is:
//
//	header    u64 number, 5 × 32-byte hashes (parent, tx, receipt, state,
//	          schedule roots)
//	calls     u32 count; each: 20-byte sender, 20-byte contract,
//	          string function, u32 arg count, tagged args, u64 value,
//	          u64 gas limit
//	receipts  u32 count; each: u32 tx, bool reverted, u64 gas, string reason
//	schedule  u32 order length, u32 per id; u32 edge count, (u32,u32) per edge
//	profiles  u32 count; each: u32 tx, u32 entry count; each entry:
//	          string scope, string key, u8 mode, u64 counter
//
// Call arguments carry the same type tags as contract.Call.EncodeForHash
// (0x01 uint64 … 0x07 Amount); an argument outside the supported wire set
// is an encode error — unlike the hash path's 0xff fallback, the wire
// must round-trip losslessly.

// Argument type tags, mirroring contract.encodeArg.
const (
	argUint64  byte = 0x01
	argInt     byte = 0x02
	argBool    byte = 0x03
	argString  byte = 0x04
	argAddress byte = 0x05
	argHash    byte = 0x06
	argAmount  byte = 0x07
)

// AppendBlockWire appends b's complete wire encoding (codec header plus
// flat body) to dst and returns the extended slice. This is the
// zero-extra-copy primitive the WAL group commit uses to pack many blocks
// into one pooled buffer; EncodeBlock and MarshalBlock are wrappers.
func AppendBlockWire(dst []byte, b Block) ([]byte, error) {
	dst, start := codec.AppendHeader(dst, codec.KindBlock)
	var err error
	if dst, err = appendFlatBody(dst, b); err != nil {
		return nil, fmt.Errorf("chain: encode block %d: %w", b.Header.Number, err)
	}
	codec.FinishHeader(dst, start)
	return dst, nil
}

func appendFlatBody(dst []byte, b Block) ([]byte, error) {
	dst = AppendHeaderWire(dst, b.Header)
	dst, err := AppendCallsWire(dst, b.Calls)
	if err != nil {
		return nil, err
	}

	dst = codec.AppendU32(dst, uint32(len(b.Receipts)))
	for _, r := range b.Receipts {
		dst = codec.AppendU32(dst, uint32(r.Tx))
		dst = codec.AppendBool(dst, r.Reverted)
		dst = codec.AppendU64(dst, uint64(r.GasUsed))
		dst = codec.AppendString(dst, r.Reason)
	}

	dst = codec.AppendU32(dst, uint32(len(b.Schedule.Order)))
	for _, id := range b.Schedule.Order {
		dst = codec.AppendU32(dst, uint32(id))
	}
	dst = codec.AppendU32(dst, uint32(len(b.Schedule.Edges)))
	for _, e := range b.Schedule.Edges {
		dst = codec.AppendU32(dst, uint32(e.From))
		dst = codec.AppendU32(dst, uint32(e.To))
	}

	dst = codec.AppendU32(dst, uint32(len(b.Profiles)))
	for _, p := range b.Profiles {
		dst = codec.AppendU32(dst, uint32(p.Tx))
		dst = codec.AppendU32(dst, uint32(len(p.Entries)))
		for _, e := range p.Entries {
			if int(e.Mode) < 0 || int(e.Mode) > 0xFF {
				return nil, fmt.Errorf("profile mode %d out of byte range", e.Mode)
			}
			dst = codec.AppendString(dst, e.Lock.Scope)
			dst = codec.AppendString(dst, e.Lock.Key)
			dst = codec.AppendU8(dst, byte(e.Mode))
			dst = codec.AppendU64(dst, e.Counter)
		}
	}
	return dst, nil
}

// AppendHeaderWire appends h's flat encoding: u64 number, then the five
// 32-byte hashes. Snapshots and the data directory's genesis marker
// carry headers in this same layout.
func AppendHeaderWire(dst []byte, h Header) []byte {
	dst = codec.AppendU64(dst, h.Number)
	dst = append(dst, h.ParentHash[:]...)
	dst = append(dst, h.TxRoot[:]...)
	dst = append(dst, h.ReceiptRoot[:]...)
	dst = append(dst, h.StateRoot[:]...)
	dst = append(dst, h.ScheduleHash[:]...)
	return dst
}

// AppendCallsWire appends a u32 call count and each call's flat
// encoding: 20-byte sender, 20-byte contract, string function, u32 arg
// count, tagged args, u64 value, u64 gas limit. Blocks and the mempool
// save file share it.
func AppendCallsWire(dst []byte, calls []contract.Call) ([]byte, error) {
	dst = codec.AppendU32(dst, uint32(len(calls)))
	for _, c := range calls {
		dst = append(dst, c.Sender[:]...)
		dst = append(dst, c.Contract[:]...)
		dst = codec.AppendString(dst, c.Function)
		dst = codec.AppendU32(dst, uint32(len(c.Args)))
		var err error
		for _, a := range c.Args {
			if dst, err = appendFlatArg(dst, a); err != nil {
				return nil, err
			}
		}
		dst = codec.AppendU64(dst, uint64(c.Value))
		dst = codec.AppendU64(dst, uint64(c.GasLimit))
	}
	return dst, nil
}

func appendFlatArg(dst []byte, a any) ([]byte, error) {
	switch x := a.(type) {
	case uint64:
		return codec.AppendU64(append(dst, argUint64), x), nil
	case int:
		return codec.AppendU64(append(dst, argInt), uint64(x)), nil
	case bool:
		return codec.AppendBool(append(dst, argBool), x), nil
	case string:
		return codec.AppendString(append(dst, argString), x), nil
	case types.Address:
		return append(append(dst, argAddress), x[:]...), nil
	case types.Hash:
		return append(append(dst, argHash), x[:]...), nil
	case types.Amount:
		return codec.AppendU64(append(dst, argAmount), uint64(x)), nil
	default:
		return nil, fmt.Errorf("call argument type %T has no wire encoding", a)
	}
}

// decodeFlatBlock parses a complete flat block payload (header included)
// without verifying commitments; callers decide whether to verify.
func decodeFlatBlock(payload []byte) (Block, error) {
	body, err := codec.ParseHeader(payload, codec.KindBlock)
	if err != nil {
		return Block{}, err
	}
	r := codec.NewReader(body)
	b, err := readFlatBody(r)
	if err != nil {
		return Block{}, err
	}
	if err := r.Done(); err != nil {
		return Block{}, err
	}
	return b, nil
}

func readFlatBody(r *codec.Reader) (Block, error) {
	var b Block
	var err error
	if b.Header, err = ReadHeaderWire(r); err != nil {
		return Block{}, err
	}
	if b.Calls, err = ReadCallsWire(r); err != nil {
		return Block{}, err
	}

	// Minimum encoded sizes guard element counts against allocation bombs
	// (see codec.Reader.Count).
	const (
		minReceipt = 4 + 1 + 8 + 4
		minProfile = 4 + 4
		minEntry   = 4 + 4 + 1 + 8
	)

	nReceipts, err := r.Count(minReceipt)
	if err != nil {
		return Block{}, fmt.Errorf("receipts: %w", err)
	}
	b.Receipts = make([]contract.Receipt, nReceipts)
	for i := range b.Receipts {
		rc := &b.Receipts[i]
		var tx uint32
		if tx, err = r.U32(); err == nil {
			rc.Tx = types.TxID(tx)
			rc.Reverted, err = r.Bool()
		}
		if err == nil {
			var g uint64
			g, err = r.U64()
			rc.GasUsed = gas.Gas(g)
		}
		if err == nil {
			rc.Reason, err = r.String()
		}
		if err != nil {
			return Block{}, fmt.Errorf("receipt %d: %w", i, err)
		}
	}

	nOrder, err := r.Count(4)
	if err != nil {
		return Block{}, fmt.Errorf("schedule order: %w", err)
	}
	b.Schedule.Order = make([]types.TxID, nOrder)
	for i := range b.Schedule.Order {
		id, err := r.U32()
		if err != nil {
			return Block{}, fmt.Errorf("schedule order %d: %w", i, err)
		}
		b.Schedule.Order[i] = types.TxID(id)
	}
	nEdges, err := r.Count(8)
	if err != nil {
		return Block{}, fmt.Errorf("schedule edges: %w", err)
	}
	b.Schedule.Edges = make([]sched.Edge, nEdges)
	for i := range b.Schedule.Edges {
		from, err := r.U32()
		if err == nil {
			var to uint32
			to, err = r.U32()
			b.Schedule.Edges[i] = sched.Edge{From: types.TxID(from), To: types.TxID(to)}
		}
		if err != nil {
			return Block{}, fmt.Errorf("schedule edge %d: %w", i, err)
		}
	}

	nProfiles, err := r.Count(minProfile)
	if err != nil {
		return Block{}, fmt.Errorf("profiles: %w", err)
	}
	b.Profiles = make([]stm.Profile, nProfiles)
	for i := range b.Profiles {
		p := &b.Profiles[i]
		tx, err := r.U32()
		if err != nil {
			return Block{}, fmt.Errorf("profile %d: %w", i, err)
		}
		p.Tx = types.TxID(tx)
		nEntries, err := r.Count(minEntry)
		if err != nil {
			return Block{}, fmt.Errorf("profile %d entries: %w", i, err)
		}
		p.Entries = make([]stm.ProfileEntry, nEntries)
		for j := range p.Entries {
			e := &p.Entries[j]
			if e.Lock.Scope, err = r.String(); err == nil {
				e.Lock.Key, err = r.String()
			}
			if err == nil {
				var m byte
				m, err = r.U8()
				e.Mode = stm.Mode(m)
			}
			if err == nil {
				e.Counter, err = r.U64()
			}
			if err != nil {
				return Block{}, fmt.Errorf("profile %d entry %d: %w", i, j, err)
			}
		}
	}
	return b, nil
}

// ReadHeaderWire reads a header written by AppendHeaderWire.
func ReadHeaderWire(r *codec.Reader) (Header, error) {
	var h Header
	var err error
	if h.Number, err = r.U64(); err != nil {
		return Header{}, err
	}
	for _, dst := range []*types.Hash{&h.ParentHash, &h.TxRoot, &h.ReceiptRoot, &h.StateRoot, &h.ScheduleHash} {
		raw, err := r.Take(types.HashLen)
		if err != nil {
			return Header{}, err
		}
		copy(dst[:], raw)
	}
	return h, nil
}

// ReadCallsWire reads calls written by AppendCallsWire.
func ReadCallsWire(r *codec.Reader) ([]contract.Call, error) {
	const minCall = types.AddressLen*2 + 4 + 4 + 8 + 8
	n, err := r.Count(minCall)
	if err != nil {
		return nil, fmt.Errorf("calls: %w", err)
	}
	calls := make([]contract.Call, n)
	for i := range calls {
		if err := readFlatCall(r, &calls[i]); err != nil {
			return nil, fmt.Errorf("call %d: %w", i, err)
		}
	}
	return calls, nil
}

func readFlatCall(r *codec.Reader, c *contract.Call) error {
	for _, dst := range []*types.Address{&c.Sender, &c.Contract} {
		raw, err := r.Take(types.AddressLen)
		if err != nil {
			return err
		}
		copy(dst[:], raw)
	}
	var err error
	if c.Function, err = r.String(); err != nil {
		return err
	}
	nArgs, err := r.Count(1)
	if err != nil {
		return fmt.Errorf("args: %w", err)
	}
	if nArgs > 0 {
		c.Args = make([]any, nArgs)
		for i := range c.Args {
			if c.Args[i], err = readFlatArg(r); err != nil {
				return fmt.Errorf("arg %d: %w", i, err)
			}
		}
	}
	v, err := r.U64()
	if err != nil {
		return err
	}
	c.Value = types.Amount(v)
	g, err := r.U64()
	if err != nil {
		return err
	}
	c.GasLimit = gas.Gas(g)
	return nil
}

func readFlatArg(r *codec.Reader) (any, error) {
	tag, err := r.U8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case argUint64:
		return r.U64()
	case argInt:
		v, err := r.U64()
		return int(v), err
	case argBool:
		return r.Bool()
	case argString:
		return r.String()
	case argAddress:
		raw, err := r.Take(types.AddressLen)
		if err != nil {
			return nil, err
		}
		var a types.Address
		copy(a[:], raw)
		return a, nil
	case argHash:
		raw, err := r.Take(types.HashLen)
		if err != nil {
			return nil, err
		}
		var h types.Hash
		copy(h[:], raw)
		return h, nil
	case argAmount:
		v, err := r.U64()
		return types.Amount(v), err
	default:
		return nil, fmt.Errorf("%w: argument tag 0x%02x", codec.ErrFormat, tag)
	}
}
