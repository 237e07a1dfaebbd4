package node

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"contractstm/internal/api"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/mempool"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// This file is the node's side of the versioned API: *Node implements
// api.Backend, and Handler exposes the api.Server built in New. The
// server owns HTTP concerns (schema, limits, timeouts, metrics); the
// node owns semantics — and in particular the durability gate: every
// block surface the API serves (blocks, head, receipts, events) is
// bounded by what the persistence layer has acknowledged.

// Handler returns the node's HTTP API: the /v1 routes. The handler is
// built once per node, so request metrics aggregate across callers.
func (n *Node) Handler() http.Handler { return n.server }

// SubmitTx implements api.Backend: the admission-controlled intake. It
// differs from Submit — the node's own trusted path — in three ways: the
// call runs the full admission pipeline (dedup, per-sender caps, rate
// limits, byte budget), a duplicate of a transaction the node already
// tracks short-circuits to the existing receipt instead of re-entering
// the pool, and eviction casualties get terminal evicted receipts so
// their submitters learn the outcome by polling. A transaction whose
// receipt is StatusEvicted may re-enter: eviction is terminal for that
// attempt, not for the payload. Receipt history is an LRU, so a
// duplicate older than the receipt window re-admits — acceptable,
// because re-executing a forgotten transaction is the pre-admission
// status quo, not a new hazard.
func (n *Node) SubmitTx(call contract.Call, priority uint8) api.SubmitResult {
	id := wire.TxIDOf(call)
	if rec, ok := n.receipts.Get(id); ok && rec.Status != wire.StatusEvicted {
		return api.SubmitResult{ID: id, Verdict: mempool.VerdictDuplicate.String(), Duplicate: true}
	}
	d := n.pool.Admit(call, priority)
	res := api.SubmitResult{
		ID:         id,
		Verdict:    d.Verdict.String(),
		Admitted:   d.Verdict.Admitted(),
		Duplicate:  d.Verdict == mempool.VerdictDuplicate,
		RetryAfter: d.RetryAfter,
	}
	if res.Admitted {
		n.receipts.MarkPending(id)
	}
	for _, dr := range d.Dropped {
		n.receipts.Record(dr.ID, wire.TxReceipt{ID: dr.ID.String(), Status: wire.StatusEvicted})
	}
	return res
}

// ImportBlock implements api.Backend over AcceptBlock, folding the
// idempotent re-import case into a non-error answer.
func (n *Node) ImportBlock(b chain.Block) (alreadyKnown bool, err error) {
	if err := n.AcceptBlock(b); err != nil {
		if errors.Is(err, ErrAlreadyKnown) {
			return true, nil
		}
		return false, err
	}
	return false, nil
}

// servedHeight is the highest height the wire API exposes: the durable
// height on a durable pipelining node, the sealed head otherwise. A
// syncing follower must never hold a block the miner could lose in a
// crash and fork.
func (n *Node) servedHeight() uint64 {
	if n.prod == nil || n.log == nil {
		return n.Height()
	}
	return n.durableHeight.Load()
}

// DurableBlock implements api.Backend: the block at height, only if it
// is at or under the durability line. The crash rule covers the pull
// path — the API must never hand out a sealed-not-durable block, or a
// client could hold state the node loses in a crash.
func (n *Node) DurableBlock(height uint64) (chain.Block, bool) {
	if height > n.servedHeight() {
		return chain.Block{}, false
	}
	return n.BlockAt(height)
}

// DurableHead implements api.Backend: the newest durable block. The
// sealed chain always holds its durable prefix, so the lookup cannot
// miss; a pruned chain's base is durable by construction.
func (n *Node) DurableHead() chain.Block {
	if b, ok := n.BlockAt(n.servedHeight()); ok {
		return b
	}
	return n.Head()
}

// Snapshot implements api.Backend.
func (n *Node) Snapshot() (persist.Snapshot, error) { return n.SnapshotNow() }

// SnapshotWire implements api.Backend: the cached framed snapshot bytes
// of a durable node (immutable between checkpoint writes), or nil.
func (n *Node) SnapshotWire() []byte {
	if n.log == nil {
		return nil
	}
	return n.log.LatestSnapshotWire()
}

// BalanceAt implements api.Backend: a read of one account's balance at
// the current block boundary. It runs a one-shot serial transaction on a
// simulated thread under execMu, so the read never interleaves with an
// executing block. On a pipelining node this reads the sealed state —
// balances, unlike receipts, are a point-in-time convenience query, not
// a durability promise.
func (n *Node) BalanceAt(addr types.Address) (types.Amount, error) {
	n.execMu.Lock()
	defer n.execMu.Unlock()
	var bal types.Amount
	var readErr error
	if _, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, gas.NewMeter(1_000_000), n.world.Schedule())
		bal, readErr = n.world.BalanceOf(tx, addr)
		if readErr != nil {
			_ = tx.Abort()
			return
		}
		readErr = tx.Commit()
	}); err != nil {
		return 0, fmt.Errorf("node: balance read: %w", err)
	}
	if readErr != nil {
		return 0, fmt.Errorf("node: balance read: %w", readErr)
	}
	return bal, nil
}

// ReadStamp implements api.Backend: the durable height reads are served
// at, plus how long ago it advanced in milliseconds (0 before the first
// advance — a fresh non-durable node has no staleness clock yet).
func (n *Node) ReadStamp() (uint64, int64) {
	height := n.servedHeight()
	at := n.lastDurableAt.Load()
	if at == 0 {
		return height, 0
	}
	stale := time.Now().UnixMilli() - at
	if stale < 0 {
		stale = 0
	}
	return height, stale
}

// HistoryReader materializes historical state reads — the nearest-
// snapshot-plus-tail-replay machinery lives in internal/replica, behind
// this interface so the node does not import it. Implementations must
// be safe for concurrent use and must answer with api.ErrHeightAhead /
// api.ErrHeightUnavailable sentinels for out-of-window heights.
type HistoryReader interface {
	BalanceAtHeight(addr types.Address, height uint64) (types.Amount, error)
}

// SetHistory attaches (or, with nil, detaches) the historical-read
// materializer behind GET /v1/state/{addr}?height=H.
func (n *Node) SetHistory(h HistoryReader) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.history = h
}

// historyReader reads the attached materializer.
func (n *Node) historyReader() HistoryReader {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.history
}

// BalanceAtHeight implements api.Backend: a balance read at a
// historical block height. The durability gate applies before the
// history window is consulted — a height above the served height is
// "behind" (412 on the wire) even if the live world has sealed past it,
// because a replica read must never expose a block a crash could void.
func (n *Node) BalanceAtHeight(addr types.Address, height uint64) (types.Amount, error) {
	if height > n.servedHeight() {
		return 0, fmt.Errorf("node: height %d: %w", height, api.ErrHeightAhead)
	}
	hist := n.historyReader()
	if hist == nil {
		return 0, fmt.Errorf("node: no history attached: %w", api.ErrHeightUnavailable)
	}
	return hist.BalanceAtHeight(addr, height)
}

// SetStatusDecorator forwards to the API server's status hook — the
// replica relay reports itself in GET /v1/status through this.
func (n *Node) SetStatusDecorator(fn func(*wire.Status)) {
	n.server.SetStatusDecorator(fn)
}

// APIStatus implements api.Backend: CurrentStatus in wire form (hashes
// as hex strings). The API field stays nil; the serving layer fills it.
func (n *Node) APIStatus() wire.Status {
	st := n.CurrentStatus()
	return wire.Status{
		Height:            st.Height,
		HeadHash:          st.HeadHash.String(),
		PoolLen:           st.PoolLen,
		Engine:            st.Engine,
		MinedBlocks:       st.MinedBlocks,
		ValidatedBlocks:   st.ValidatedBlocks,
		TotalRetries:      st.TotalRetries,
		DurableHeight:     st.DurableHeight,
		PipelineDepth:     st.PipelineDepth,
		InFlight:          st.InFlight,
		Persistent:        st.Persistent,
		RecoveredBlocks:   st.RecoveredBlocks,
		SnapshotHeight:    st.SnapshotHeight,
		SnapshotErrors:    st.SnapshotErrors,
		WalAppends:        st.WalAppends,
		WalBytesWritten:   st.WalBytesWritten,
		WalFsyncs:         st.WalFsyncs,
		WalFsyncMicros:    st.WalFsyncMicros,
		WalGroupCommits:   st.WalGroupCommits,
		WalMaxGroup:       st.WalMaxGroup,
		ChainBase:         st.ChainBase,
		ImportMode:        st.ImportMode,
		ImportDivergences: st.ImportDivergences,
		Mempool: &wire.MempoolStatus{
			Admitted:       st.Mempool.Admitted,
			Replaced:       st.Mempool.Replaced,
			Duplicate:      st.Mempool.Duplicate,
			RateLimited:    st.Mempool.RateLimited,
			SenderLimit:    st.Mempool.SenderLimit,
			ShardSaturated: st.Mempool.ShardSaturated,
			PoolOverloaded: st.Mempool.PoolOverloaded,
			Evicted:        st.Mempool.Evicted,
			Bytes:          st.Mempool.Bytes,
			Shards:         len(st.Mempool.ShardOccupancy),
			ShardOccupancy: st.Mempool.ShardOccupancy,
		},
	}
}
