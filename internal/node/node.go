// Package node assembles the library into a runnable service: a mempool,
// a speculative parallel miner, a deterministic parallel validator and a
// hash-linked chain behind the versioned /v1 HTTP API of internal/api.
// It is the "downstream user" layer: cmd/nodesrv serves it, and the tests
// drive a miner node and a validator node end to end over HTTP.
//
// Endpoints (see docs/API.md):
//
//	POST /v1/tx            {sender, contract, function, args, value, gasLimit} → {id, poolLen}
//	GET  /v1/tx/{id}       → receipt (pending | committed | aborted), durable blocks only
//	POST /v1/mine          {blockSize}       → mines one block from the pool
//	POST /v1/blocks        (flat block bytes) → validate + append (validator nodes)
//	GET  /v1/blocks/N      → flat block bytes (durable blocks only)
//	GET  /v1/head          → durable head summary JSON
//	GET  /v1/status        → height, pool depth, stats, API metrics
//	GET  /v1/state/{addr}  → account balance
//	GET  /v1/snapshot      → state checkpoint (snapshot fast-sync)
//	GET  /v1/subscribe     → SSE stream of durable blocks + receipts
//
// Transactions arrive as JSON with a small typed argument encoding
// (wire.Arg); blocks travel in the chain package's flat wire format so the
// schedule metadata survives byte-exact. Every submitted transaction gets
// a content-derived ID (wire.TxIDOf); its receipt — status, gas used,
// abort reason, block coordinates, schedule position — becomes queryable
// only once the containing block is durable, which is the crash rule
// extended to the client API.
//
// With Config.DataDir set the node is durable: every appended block goes
// to a write-ahead log before it becomes visible, state snapshots are
// written periodically, and New recovers a previous run's chain by
// loading the newest snapshot and replaying the WAL tail through the
// validator — so recovery re-verifies the published (S, H) schedules
// exactly as a peer would.
//
// With Config.PipelineDepth > 1 block production is pipelined: MineOne
// returns once a block is sealed (selected, executed, appended to the
// chain) and hands the WAL append + fsync to an asynchronous group-commit
// writer, so the disk sync of block N overlaps the execution of block
// N+1. The chain head then has two notions: the sealed height (what
// mining builds on) and the durable height (what a crash provably keeps;
// Status reports both). The crash-consistency rule: a block is published
// to peers (Config.Publish) only after its WAL record is durable, in
// height order, and a persist failure rolls the sealed-not-durable suffix
// back — world restored, chain rewound, calls requeued at their original
// arrival position. PipelineDepth 1 (the default) is the fully
// synchronous path: durable before MineOne returns, exactly the
// pre-pipeline behavior.
package node

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"contractstm/internal/api"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/mempool"
	"contractstm/internal/miner"
	"contractstm/internal/persist"
	"contractstm/internal/pipeline"
	"contractstm/internal/runtime"
	"contractstm/internal/storage"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
	"contractstm/internal/validator"
)

// Config assembles a node.
type Config struct {
	// World is the node's contract state at the current chain head.
	World *contract.World
	// Workers is the mining/validation pool size.
	Workers int
	// Runner executes mining and validation (nil = real OS threads).
	Runner runtime.Runner
	// SelectionPolicy picks block transactions from the pool.
	SelectionPolicy txpool.Policy
	// Engine selects the block-execution strategy (default speculative).
	Engine engine.Kind
	// DataDir, when non-empty, makes the node durable: blocks append to
	// a WAL under this directory, state snapshots are written on the
	// Persist cadence, and New transparently recovers a previous run's
	// chain. World must be the same genesis world (same deterministic
	// setup) the directory was created with.
	DataDir string
	// Persist tunes WAL fsync batching and snapshot cadence; zero values
	// mean the persist package defaults. Ignored without DataDir.
	Persist persist.Options
	// PipelineDepth bounds the sealed-not-durable window: how many mined
	// blocks may await their WAL fsync while the next one executes. 0 or
	// 1 selects the synchronous path (durable before MineOne returns).
	// Depth > 1 overlaps execution with persistence; see the package
	// comment for the sealed/durable distinction and the abort rule.
	PipelineDepth int
	// Publish, when non-nil, is called for every locally mined block once
	// it is durable (or immediately after sealing on a node without a
	// DataDir), serially and in height order — the safe point to announce
	// a block to peers. The hook must not call back into the node.
	Publish func(chain.Block)
	// DefaultBlockSize caps mined blocks when a mine request leaves the
	// size unset (0 = api.DefaultBlockSize, 100).
	DefaultBlockSize int
	// DefaultGasLimit is assigned to submitted transactions that leave
	// the gas limit unset (0 = api.DefaultGasLimit, 1e6).
	DefaultGasLimit uint64
	// MaxGasLimit rejects API-submitted transactions whose gas limit
	// exceeds it (0 = api.DefaultMaxGasLimit, 1e8).
	MaxGasLimit uint64
	// MaxBodyBytes bounds JSON request bodies on the API
	// (0 = api.DefaultMaxBodyBytes, 1 MiB).
	MaxBodyBytes int64
	// ReceiptCapacity bounds the in-memory receipt index
	// (0 = api.DefaultReceiptCapacity).
	ReceiptCapacity int
	// SubscriberBuffer sizes each /v1/subscribe subscriber's event
	// buffer (0 = api.DefaultSubscriberBuffer). Relay nodes serving many
	// downstream subscribers raise it.
	SubscriberBuffer int
	// EventReplayDepth is how many published events the broker retains
	// for Last-Event-ID reconnect replay (0 = api.DefaultEventReplayDepth,
	// negative disables replay).
	EventReplayDepth int
	// ErrorLog receives node- and API-level serving faults that would
	// otherwise be swallowed (response-encoding failures and the like).
	// Nil logs to the standard logger.
	ErrorLog func(error)
	// Mempool tunes the sharded pool and its admission pipeline (shard
	// count, per-sender slots and rate limits, byte budget). Zero-value
	// limits are permissive — nothing is shed. The clock (Mempool.Now) defaults to time.Now; the pool
	// itself never reads the wall clock.
	Mempool mempool.Config
	// ImportMode is the staged-import rollout switch (off|shadow|on);
	// see ImportMode's doc comment. The zero value is ImportOff: catch-up
	// sync stays on the serial one-block-at-a-time path.
	ImportMode ImportMode
}

// Node is a single in-process blockchain node.
type Node struct {
	// mu guards the bookkeeping state: chain, pool interactions tied to
	// chain state, and counters. It is never held across a block
	// execution, so status queries stay responsive while a block mines.
	mu sync.Mutex
	// execMu serializes world-mutating block work (mining and foreign-
	// block validation): the world advances one block at a time.
	execMu  sync.Mutex
	world   *contract.World
	chain   *chain.Chain
	pool    *mempool.Pool
	workers int
	runner  runtime.Runner
	policy  txpool.Policy
	eng     engine.Engine
	// log is the durable persistence log (nil without Config.DataDir).
	log *persist.Log
	// snapEvery is the snapshot cadence in blocks (<=0 disables);
	// sinceSnap counts appends since the last snapshot (both guarded by
	// execMu, not n.mu — see maybeSnapshot).
	snapEvery int
	sinceSnap int
	// snapshotErrs counts failed checkpoint writes (atomic: bumped under
	// execMu, read by CurrentStatus under n.mu). Non-zero means the WAL
	// is growing unpruned and recovery time with it — a durable node
	// whose snapshots silently stopped is a monitoring fact, not a
	// detail to swallow.
	snapshotErrs atomic.Int64
	// lastSnapHeight mirrors the log's newest snapshot height (atomic),
	// so CurrentStatus never calls into the persist.Log — whose mutex
	// Append/WriteSnapshot hold across fsyncs — while holding n.mu.
	lastSnapHeight atomic.Uint64
	// recoveredBlocks counts blocks replayed from the WAL by New.
	recoveredBlocks int
	// writer is the asynchronous group-commit WAL appender (nil unless
	// the node is durable with PipelineDepth > 1). All WAL block appends
	// go through it when present, so mined and imported blocks serialize
	// in one queue.
	writer *persist.Writer
	// prod coordinates the pipelined block lifecycle (nil when
	// PipelineDepth <= 1): window admission, back-pressure and the abort
	// pass on persist failure.
	prod *pipeline.Producer
	// inflight is the sealed-not-durable registry, oldest first. Entries
	// are appended under execMu (at seal) and popped from the front as
	// durability verdicts arrive; the abort pass drains it wholesale.
	// Guarded by n.mu.
	inflight []*inflightEntry
	// durableHeight is the newest block acknowledged by the persistence
	// layer (atomic; equals the sealed height on a non-durable node).
	durableHeight atomic.Uint64
	// lastDurableAt is when the durable height last advanced, in unix
	// milliseconds (atomic; 0 until the first advance). The API's
	// X-Chain-Staleness header derives from it.
	lastDurableAt atomic.Int64
	// history, when attached (SetHistory), materializes historical state
	// reads for the API's ?height=H queries. Guarded by n.mu.
	history HistoryReader
	// publish is the post-durability announce hook (Config.Publish;
	// guarded by n.mu so SetPublish can install it after construction).
	publish func(chain.Block)
	// receipts indexes per-transaction execution results by content-
	// derived ID; entries are recorded only once the containing block is
	// durable (the crash rule extends to the client API). events fans
	// durable blocks out to /v1/subscribe streams.
	receipts *api.ReceiptStore
	events   *api.Broker
	// server is the /v1 API layer (built once; Handler returns it).
	server *api.Server
	// errLog is the serving-fault hook (Config.ErrorLog or std log).
	errLog func(error)
	// importMode is the staged-import rollout switch (fixed at
	// construction); importDivergences counts shadow-mode verdict
	// disagreements between the pipeline's Phase A and the serial
	// recomputation (atomic: bumped under execMu, read by status).
	importMode        ImportMode
	importDivergences atomic.Int64
	// stats
	minedBlocks     int
	validatedBlocks int
	totalRetries    int
}

// inflightEntry is one sealed block awaiting its durability verdict,
// with everything the abort pass needs to un-seal it.
type inflightEntry struct {
	block chain.Block
	// sel returns the block's calls to their arrival position on abort.
	sel mempool.Selection
	// snap is the world state before the block executed.
	snap storage.Snapshot
	// retries is the block's execution retry count, un-tallied on abort.
	retries int
}

// New creates a node whose genesis commits to the world's current state.
func New(cfg Config) (*Node, error) {
	if cfg.World == nil {
		return nil, fmt.Errorf("node: nil world")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Runner == nil {
		cfg.Runner = runtime.NewOSRunner(nil)
	}
	if cfg.SelectionPolicy == 0 {
		cfg.SelectionPolicy = txpool.PolicyFIFO
	}
	if cfg.Engine == 0 {
		cfg.Engine = engine.KindSpeculative
	}
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	root, err := cfg.World.StateRoot()
	if err != nil {
		return nil, fmt.Errorf("node: state root: %w", err)
	}
	poolCfg := cfg.Mempool
	if poolCfg.Now == nil {
		poolCfg.Now = time.Now
	}
	n := &Node{
		world:   cfg.World,
		chain:   chain.New(root),
		pool:    mempool.New(poolCfg),
		workers: cfg.Workers,
		runner:  cfg.Runner,
		policy:  cfg.SelectionPolicy,
		eng:     eng,
	}
	n.importMode = cfg.ImportMode
	n.errLog = cfg.ErrorLog
	if n.errLog == nil {
		n.errLog = func(err error) { log.Printf("node: %v", err) }
	}
	n.receipts = api.NewReceiptStore(cfg.ReceiptCapacity)
	replayDepth := cfg.EventReplayDepth
	if replayDepth == 0 {
		replayDepth = api.DefaultEventReplayDepth
	} else if replayDepth < 0 {
		replayDepth = 0
	}
	n.events = api.NewBrokerRetaining(replayDepth)
	if cfg.DataDir != "" {
		if err := n.openDurable(cfg, root); err != nil {
			// Release the directory lock a partially-opened log holds, or
			// the next open attempt would fail with ErrLocked instead of
			// the real problem.
			if n.log != nil {
				_ = n.log.Close()
			}
			return nil, err
		}
	}
	n.publish = cfg.Publish
	if cfg.PipelineDepth > 1 {
		if n.log != nil {
			n.writer = persist.NewWriter(n.log)
		}
		n.prod = pipeline.New(cfg.PipelineDepth, n.abortPipeline)
	}
	n.server = api.NewServer(api.Config{
		Backend:          n,
		Receipts:         n.receipts,
		Events:           n.events,
		DefaultBlockSize: cfg.DefaultBlockSize,
		DefaultGasLimit:  cfg.DefaultGasLimit,
		MaxGasLimit:      cfg.MaxGasLimit,
		MaxBodyBytes:     cfg.MaxBodyBytes,
		SubscriberBuffer: cfg.SubscriberBuffer,
		ErrorLog:         n.errLog,
	})
	return n, nil
}

// SetPublish installs (or replaces) the post-durability publish hook.
// Call it before mining starts: a hook swapped mid-pipeline may miss
// blocks already past their publish stage.
func (n *Node) SetPublish(f func(chain.Block)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.publish = f
}

// publishHook reads the current hook.
func (n *Node) publishHook() func(chain.Block) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.publish
}

// openDurable opens the persistence log and recovers a previous run:
// restore the newest snapshot, replay the WAL tail through the
// validator, and restore the saved mempool. A fresh directory records a
// permanent genesis identity marker plus a restorable genesis snapshot;
// every reopen verifies the marker, so a data dir from a different
// genesis world fails loudly instead of being silently adopted — even
// after snapshot retention has pruned the genesis snapshot itself.
func (n *Node) openDurable(cfg Config, genesisRoot types.Hash) error {
	log, err := persist.Open(cfg.DataDir, cfg.Persist)
	if err != nil {
		return fmt.Errorf("node: %w", err)
	}
	opts := cfg.Persist.WithDefaults()
	n.log = log
	n.snapEvery = opts.SnapshotEvery

	if err := log.EnsureGenesis(chain.GenesisHeader(genesisRoot)); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	snap := log.LatestSnapshot()
	switch {
	case snap == nil:
		// Fresh directory: checkpoint genesis.
		state, err := n.world.EncodeState()
		if err != nil {
			return fmt.Errorf("node: encode genesis state: %w", err)
		}
		if err := log.WriteSnapshot(persist.Snapshot{Header: chain.GenesisHeader(genesisRoot), State: state}); err != nil {
			return fmt.Errorf("node: genesis snapshot: %w", err)
		}
	case snap.Height() == 0:
		if snap.Header != chain.GenesisHeader(genesisRoot) {
			return fmt.Errorf("node: data dir %s belongs to a different genesis (snapshot root %s, world root %s)",
				cfg.DataDir, snap.Header.StateRoot.Short(), genesisRoot.Short())
		}
	default:
		if err := n.world.RestoreState(snap.State); err != nil {
			return fmt.Errorf("node: snapshot %d: %w", snap.Height(), err)
		}
		root, err := n.world.StateRoot()
		if err != nil {
			return fmt.Errorf("node: state root: %w", err)
		}
		if root != snap.Header.StateRoot {
			return fmt.Errorf("node: snapshot %d state hashes to %s, header claims %s",
				snap.Height(), root.Short(), snap.Header.StateRoot.Short())
		}
		n.chain = chain.NewAt(snap.Header)
	}

	// Replay the WAL tail through the full validation path: recovery
	// re-verifies every published schedule, so corrupt-but-well-framed
	// records cannot smuggle state in.
	from := n.chain.Head().Header.Number + 1
	if err := log.Blocks(from, func(b chain.Block) error {
		if err := n.replayBlock(b); err != nil {
			return err
		}
		n.recoveredBlocks++
		return nil
	}); err != nil {
		return fmt.Errorf("node: recover: %w", err)
	}

	calls, err := log.TakePool()
	if err != nil {
		return fmt.Errorf("node: recover pool: %w", err)
	}
	if len(calls) > 0 {
		// Restored calls were admitted in a previous life; they re-enter
		// through the trusted path, never re-run admission.
		n.pool.SubmitAllTrusted(calls)
	}

	// Resume the snapshot cadence where the previous run left it: the
	// replayed WAL tail counts against it, and an overdue checkpoint is
	// written now. Otherwise a node that crashes more often than every
	// SnapshotEvery blocks would never snapshot past genesis, and its
	// WAL — and recovery time — would grow without bound.
	if s := log.LatestSnapshot(); s != nil {
		n.lastSnapHeight.Store(s.Height())
		n.sinceSnap = int(n.chain.Head().Header.Number - s.Height())
		n.maybeSnapshot(0)
	}
	// Everything recovered from disk is by definition durable.
	n.markDurable(n.chain.Head().Header.Number)
	return nil
}

// replayBlock validates and appends one recovered block. Only New calls
// it, before the node is shared, so no locking.
func (n *Node) replayBlock(b chain.Block) error {
	snap := n.world.Snapshot()
	if _, err := validator.Validate(n.runner, n.world, b, validator.Config{Workers: n.workers}); err != nil {
		n.world.Restore(snap)
		return err
	}
	if err := n.chain.Append(b); err != nil {
		n.world.Restore(snap)
		return err
	}
	// Replayed blocks are durable by definition — their receipts are
	// queryable from the moment the node comes back up.
	n.recordDurable(b)
	return nil
}

// RecoveredBlocks reports how many blocks New replayed from the WAL.
func (n *Node) RecoveredBlocks() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recoveredBlocks
}

// Flush drains the pipeline: it blocks until every sealed block has its
// durability verdict (and any abort pass has finished), then reports the
// pipeline's latched error, if any. A node without a pipeline is always
// drained. Do not call from a publish hook.
func (n *Node) Flush() error {
	if n.prod == nil {
		return nil
	}
	if err := n.prod.Flush(); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	return nil
}

// Close persists the pending mempool and cleanly closes the WAL, first
// draining the pipeline so the mempool snapshot reflects every abort. A
// node without a DataDir has nothing to do beyond the drain. The node
// must be quiescent (callers stop serving first); mining after Close
// fails on the closed log.
func (n *Node) Close() error {
	flushErr := n.Flush()
	if n.writer != nil {
		// The writer's latched error, if any, already surfaced in Flush.
		_ = n.writer.Close()
	}
	n.execMu.Lock()
	defer n.execMu.Unlock()
	// The pipelined path defers cadence checkpoints to drain points, and
	// shutdown is the last one: an overdue snapshot writes now, so a node
	// whose mining stopped exactly at a cadence boundary matches the
	// synchronous path's disk state instead of leaving the whole WAL tail
	// for the next recovery to replay.
	if flushErr == nil {
		n.maybeSnapshot(0)
	}
	// n.mu guards the bookkeeping reads only; the pool save and WAL close
	// run outside it (execMu, still held, keeps the world quiescent, and
	// persist.Log serializes its own I/O internally).
	n.mu.Lock()
	log := n.log
	var pending []contract.Call
	if log != nil {
		pending = n.pool.PendingCalls()
	}
	n.mu.Unlock()
	if log == nil {
		return flushErr
	}
	if err := log.SavePool(pending); err != nil {
		return fmt.Errorf("node: close: %w", err)
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("node: close: %w", err)
	}
	return flushErr
}

// Kill simulates a crash: the WAL file handles and the data-dir lock are
// released so the directory can be reopened, but nothing graceful
// happens — no pool save, no shutdown courtesy. The durable state is
// exactly what the WAL already holds, which is the point: crash tests
// and demos recover from this. (An actual process kill releases the
// lock the same way, since advisory locks die with their descriptors.)
func (n *Node) Kill() {
	// A crashing pipeline runs no abort passes — the process is "gone",
	// so its in-memory world is nobody's business; only the WAL speaks.
	if n.prod != nil {
		n.prod.Latch(persist.ErrClosed)
	}
	if n.writer != nil {
		n.writer.Kill()
	}
	n.execMu.Lock()
	defer n.execMu.Unlock()
	n.mu.Lock()
	log := n.log
	n.mu.Unlock()
	if log != nil {
		_ = log.Close()
	}
}

// Submit queues a transaction and tracks it as pending in the receipt
// index, so a client polling the content-derived ID reads "pending"
// rather than "unknown" until the containing block is durable. The ID is
// returned so serving layers derive it exactly once.
func (n *Node) Submit(call contract.Call) types.Hash {
	id := wire.TxIDOf(call)
	n.receipts.MarkPending(id)
	n.pool.SubmitTrusted(call)
	return id
}

// SubmitAll queues a batch of transactions atomically: no other
// submitter's calls interleave inside the batch. Like Submit, this is
// the trusted intake — admission control (dedup, caps, rate limits)
// applies only to the API path (SubmitTx), because the node's own
// batches may legitimately contain byte-identical calls.
func (n *Node) SubmitAll(calls []contract.Call) {
	for _, c := range calls {
		n.receipts.MarkPending(wire.TxIDOf(c))
	}
	n.pool.SubmitAllTrusted(calls)
}

// recordDurable indexes a durable block's receipts and fans the block
// out to event-stream subscribers. It is called exactly at the points
// where a block crosses the durability line: the synchronous mine path,
// the pipelined durability verdict, foreign-block import, and WAL
// recovery — never for a sealed-not-durable block, which a crash could
// still void.
func (n *Node) recordDurable(b chain.Block) {
	recs := wire.ReceiptsOf(b)
	for i, c := range b.Calls {
		n.receipts.Record(wire.TxIDOf(c), recs[i])
	}
	n.events.Publish(wire.Event{Block: wire.BlockInfoOf(b), Receipts: recs})
}

// markDurable advances the durable height and stamps when it happened —
// the staleness clock behind the API's X-Chain-Staleness header. Every
// durable-height advance funnels through here.
func (n *Node) markDurable(height uint64) {
	n.durableHeight.Store(height)
	n.lastDurableAt.Store(time.Now().UnixMilli())
}

// PoolLen reports queued transactions.
func (n *Node) PoolLen() int { return n.pool.Len() }

// chainRef reads the chain pointer safely: InstallSnapshot swaps it at
// runtime (holding both execMu and n.mu), so readers must hold one of
// the two; the public accessors hold neither, hence this helper.
func (n *Node) chainRef() *chain.Chain {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.chain
}

// Height returns the chain height (genesis = 0).
func (n *Node) Height() uint64 {
	return n.chainRef().Head().Header.Number
}

// Head returns the chain head.
func (n *Node) Head() chain.Block { return n.chainRef().Head() }

// BlockAt returns a block by height.
func (n *Node) BlockAt(h uint64) (chain.Block, bool) { return n.chainRef().BlockAt(h) }

// MineOne selects up to blockSize transactions, executes them with the
// node's engine, appends the block and reports conflict feedback to the
// pool. It returns the sealed block. With PipelineDepth <= 1 the block is
// durable (per the WAL sync policy) before MineOne returns; with a deeper
// pipeline the persist + publish stages complete asynchronously, and a
// later persist failure rolls the block back and requeues its calls — see
// the package comment.
//
// Locking: execMu serializes the world mutation end to end, but n.mu is
// only taken for the short bookkeeping sections (selection against the
// current head, then seal-and-append), never across the execution itself.
func (n *Node) MineOne(blockSize int) (chain.Block, error) {
	if n.prod != nil {
		return n.mineOnePipelined(blockSize, true)
	}
	n.execMu.Lock()
	defer n.execMu.Unlock()

	sel, res, snap, err := n.executeSeal(blockSize)
	if err != nil {
		return chain.Block{}, err
	}

	// WAL first: a block must be durable before it becomes visible.
	// Persistence I/O runs under execMu alone — execMu already serializes
	// every appender, and fsyncs must not stall status queries on n.mu.
	// execMu also guarantees the seal raced nobody, so the chain append
	// after a successful WAL write cannot fail short of a bug.
	if err := n.persistBlock(res.Block); err != nil {
		n.world.Restore(snap)
		n.pool.RequeueBatch(sel)
		return chain.Block{}, fmt.Errorf("node: persist: %w", err)
	}
	n.markDurable(res.Block.Header.Number)

	n.mu.Lock()
	err = n.chain.Append(res.Block)
	if err == nil {
		n.reportFeedbackLocked(sel.Calls, res)
		n.minedBlocks++
		n.totalRetries += res.Stats.Retries
	}
	n.mu.Unlock()
	if err != nil {
		n.world.Restore(snap)
		n.pool.RequeueBatch(sel)
		return chain.Block{}, fmt.Errorf("node: append: %w", err)
	}
	// Durable and appended: receipts become visible and the block goes to
	// event-stream subscribers, before the peer publish hook so a peer
	// notified of the block can immediately query its receipts here.
	n.recordDurable(res.Block)
	n.maybeSnapshot(1)
	if publish := n.publishHook(); publish != nil {
		publish(res.Block)
	}
	return res.Block, nil
}

// executeSeal is the select + execute + seal stage shared by the
// synchronous and pipelined paths: pick a batch against the current head,
// run it through the engine and seal the result. On failure the world is
// restored and the batch requeued at its arrival position. Caller holds
// execMu; the returned snapshot is the world state before the block (the
// pipelined abort path restores it).
func (n *Node) executeSeal(blockSize int) (mempool.Selection, miner.Result, storage.Snapshot, error) {
	n.mu.Lock()
	sel, err := n.pool.SelectBatch(n.policy, blockSize)
	parent := n.chain.Head().Header
	n.mu.Unlock()
	if err != nil {
		return mempool.Selection{}, miner.Result{}, storage.Snapshot{}, fmt.Errorf("node: select: %w", err)
	}

	// Snapshot the world, execute outside n.mu, seal under it. execMu
	// guarantees the parent header cannot move underneath us.
	snap := n.world.Snapshot()
	res, err := miner.Mine(n.eng, n.runner, n.world, parent, sel.Calls,
		engine.Options{Workers: n.workers})
	if err != nil {
		n.world.Restore(snap)
		// The selection was destructive; a failed attempt must not lose
		// the clients' transactions.
		n.pool.RequeueBatch(sel)
		return mempool.Selection{}, miner.Result{}, storage.Snapshot{}, fmt.Errorf("node: mine: %w", err)
	}
	return sel, res, snap, nil
}

// reportFeedbackLocked feeds the engine's conflict observations back to
// the pool: retried transactions always (the spread policy's signal), and
// the full happens-before pair structure when the lock-hint policy is
// active. Caller holds n.mu.
func (n *Node) reportFeedbackLocked(calls []contract.Call, res miner.Result) {
	var conflicted []contract.Call
	for _, id := range res.Stats.RetriedTxs {
		conflicted = append(conflicted, calls[id])
	}
	n.pool.ReportConflicts(conflicted)
	if n.policy == txpool.PolicyLockHint && len(res.Stats.ConflictPairs) > 0 {
		pairs := make([][2]contract.Call, 0, len(res.Stats.ConflictPairs))
		for _, pr := range res.Stats.ConflictPairs {
			pairs = append(pairs, [2]contract.Call{calls[pr[0]], calls[pr[1]]})
		}
		n.pool.ReportConflictPairs(pairs)
	}
}

// mineOnePipelined runs the staged path: admit into the window (blocking
// while PipelineDepth blocks await their fsync — the back-pressure rule),
// seal the next block on the sealed head, register it in the in-flight
// list and hand it to the persist stage. With submit=false the block is
// left sealed-but-unsubmitted — the crash tests' way of parking the node
// at an exact pipeline stage.
func (n *Node) mineOnePipelined(blockSize int, submit bool) (chain.Block, error) {
	if err := n.prod.Admit(); err != nil {
		return chain.Block{}, fmt.Errorf("node: %w", err)
	}
	n.execMu.Lock()
	// A failure latched while we waited for the window: nothing may seal
	// on a suffix the abort pass is (or will be) rolling back.
	if err := n.prod.Err(); err != nil {
		n.execMu.Unlock()
		n.prod.Release()
		return chain.Block{}, fmt.Errorf("node: %w", err)
	}
	// Snapshot cadence: checkpoints need a durable boundary, so when one
	// is due the window drains first — a periodic group boundary.
	if err := n.maybeSnapshotPipelined(); err != nil {
		n.execMu.Unlock()
		n.prod.Release()
		return chain.Block{}, fmt.Errorf("node: %w", err)
	}

	sel, res, snap, err := n.executeSeal(blockSize)
	if err != nil {
		n.execMu.Unlock()
		n.prod.Release()
		return chain.Block{}, err
	}

	// Seal the chain head forward — sealed, not yet durable — and
	// register the entry before execMu drops, so the abort pass (which
	// runs under execMu) always sees every sealed block.
	entry := &inflightEntry{block: res.Block, sel: sel, snap: snap, retries: res.Stats.Retries}
	n.mu.Lock()
	err = n.chain.Append(res.Block)
	if err == nil {
		n.inflight = append(n.inflight, entry)
		n.reportFeedbackLocked(sel.Calls, res)
		n.minedBlocks++
		n.totalRetries += res.Stats.Retries
	}
	n.mu.Unlock()
	if err != nil {
		n.world.Restore(snap)
		n.pool.RequeueBatch(sel)
		n.execMu.Unlock()
		n.prod.Release()
		return chain.Block{}, fmt.Errorf("node: append: %w", err)
	}
	n.sinceSnap++ // sealed blocks count toward the cadence (execMu)
	// Hand off to the persist stage while still holding execMu: WAL
	// queue order must match chain order even against a concurrent
	// AcceptBlock. Enqueue never blocks on I/O.
	if submit {
		n.submitEntry(entry)
	}
	n.execMu.Unlock()
	return res.Block, nil
}

// submitEntry hands a sealed block to the persist stage. On a durable
// node the group-commit writer owns the fsync; without one there is
// nothing to wait for and the entry completes on the spot.
func (n *Node) submitEntry(e *inflightEntry) {
	if n.writer != nil {
		n.writer.Enqueue(e.block, func(err error) { n.entryDurable(e, err) })
		return
	}
	n.entryDurable(e, nil)
}

// entryDurable is the persist stage's verdict callback: on success the
// entry leaves the in-flight registry, the durable height advances and
// the block is published; on failure the producer schedules the abort
// pass. Verdicts arrive serially in height order (the writer goroutine
// delivers them), which is what makes the publish hook's ordering
// guarantee hold.
func (n *Node) entryDurable(e *inflightEntry, err error) {
	if err != nil {
		n.prod.Complete(err)
		return
	}
	n.mu.Lock()
	if len(n.inflight) > 0 && n.inflight[0] == e {
		n.inflight = n.inflight[1:]
	}
	publish := n.publish
	n.mu.Unlock()
	n.markDurable(e.block.Header.Number)
	// The durability line: receipts for this block become queryable now,
	// never at seal time — a crash between seal and this verdict voids
	// the block, and served receipts must not outlive their block.
	n.recordDurable(e.block)
	if publish != nil {
		publish(e.block)
	}
	n.prod.Complete(nil)
}

// abortPipeline is the producer's abort pass: a persist failure voids
// every sealed-not-durable block. The world rolls back to the oldest
// failed block's pre-state, the chain rewinds under it, and every failed
// batch goes back to the pool at its original arrival position — which is
// why RequeueBatch merges by arrival order rather than trusting abort
// order. Runs under execMu so it cannot race a concurrent seal.
func (n *Node) abortPipeline(cause error) {
	n.execMu.Lock()
	defer n.execMu.Unlock()
	n.mu.Lock()
	entries := n.inflight
	n.inflight = nil
	n.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	oldest := entries[0]
	n.world.Restore(oldest.snap)
	n.mu.Lock()
	// Rewind cannot fail: sealed blocks sit strictly above the base.
	_ = n.chain.RewindTo(oldest.block.Header.Number - 1)
	n.minedBlocks -= len(entries)
	for _, e := range entries {
		// The aborted blocks' execution stats leave the tallies too, or
		// retries-per-mined-block reads would count phantom blocks.
		n.totalRetries -= e.retries
	}
	n.mu.Unlock()
	for _, e := range entries {
		n.pool.RequeueBatch(e.sel)
	}
	if n.sinceSnap -= len(entries); n.sinceSnap < 0 {
		n.sinceSnap = 0
	}
}

// maybeSnapshotPipelined drains the pipeline window and writes the due
// checkpoint, if any. Caller holds execMu. A latched writer surfaces its
// error; the caller backs off and lets the abort pass run.
func (n *Node) maybeSnapshotPipelined() error {
	if n.log == nil || n.snapEvery <= 0 || n.sinceSnap < n.snapEvery {
		return nil
	}
	if err := n.writer.Flush(); err != nil {
		return fmt.Errorf("pipeline flush: %w", err)
	}
	// Window drained: sealed == durable, the world sits exactly at the
	// chain head, and the checkpoint describes a recoverable boundary.
	n.maybeSnapshot(0)
	return nil
}

// persistBlock appends b to the WAL (no-op without persistence),
// returning once the block is acknowledged per the sync policy. On a
// pipelining node the write goes through the group-commit writer so it
// serializes behind any in-flight mined blocks. Caller holds execMu;
// n.mu is not needed and deliberately not held across the disk write.
func (n *Node) persistBlock(b chain.Block) error {
	if n.log == nil {
		return nil
	}
	if n.writer != nil {
		return n.writer.Append(b)
	}
	return n.log.Append(b)
}

// maybeSnapshot advances the cadence counter by delta blocks and writes
// a state checkpoint when it is due. The world is exactly at the chain
// head here: the caller holds execMu (which guards n.sinceSnap and keeps
// the chain pointer stable; n.mu is deliberately NOT held across the
// state encoding and snapshot fsyncs). A failed snapshot is dropped
// rather than failing the block: the WAL already holds the block, so
// durability is intact and only recovery speed suffers; the next cadence
// tick tries again — and the failure shows in Status.SnapshotErrors.
func (n *Node) maybeSnapshot(delta int) {
	if n.log == nil || n.snapEvery <= 0 {
		return
	}
	n.sinceSnap += delta
	if n.sinceSnap < n.snapEvery {
		return
	}
	n.sinceSnap = 0
	state, err := n.world.EncodeState()
	if err != nil {
		n.snapshotErrs.Add(1)
		return
	}
	head := n.chain.Head().Header
	if err := n.log.WriteSnapshot(persist.Snapshot{Header: head, State: state}); err != nil {
		n.snapshotErrs.Add(1)
		return
	}
	n.lastSnapHeight.Store(head.Number)
}

// Errors reported by block import.
var (
	// ErrAlreadyKnown reports an import of a block the chain already
	// holds. Imports are idempotent: callers (gossip, catch-up sync) may
	// treat it as success.
	ErrAlreadyKnown = errors.New("node: block already known")
	// ErrFork reports an import that conflicts with a different block
	// already committed at the same height — chain divergence.
	ErrFork = errors.New("node: fork: conflicting block for committed height")
)

// AcceptBlock validates a foreign block against the node's state and
// appends it — the validator-node path. On rejection the world state is
// restored. Like MineOne, it holds execMu (not n.mu) across the
// validation execution.
//
// Import is idempotent: a block already on the chain returns
// ErrAlreadyKnown without re-executing; a different block at an occupied
// height returns ErrFork. Both checks run before validation, so repeated
// gossip of old blocks costs two hashes, not a replay.
func (n *Node) AcceptBlock(b chain.Block) error {
	return n.acceptBlock(b, nil, nil)
}

// acceptBlock is the shared import core behind AcceptBlock (serial path)
// and ImportPrechecked (staged pipeline). A nil pre means the stateless
// checks have not run yet and the full serial validator executes; a
// non-nil pre carries Phase A's outputs — preErr (if any) is surfaced
// after the linkage checks, exactly where the serial path would have
// failed, and a nil preErr skips straight to the stateful Phase B with
// the cached plan. Either way the error strings match the serial path
// byte for byte.
func (n *Node) acceptBlock(b chain.Block, pre *validator.Prechecked, preErr error) error {
	n.execMu.Lock()
	defer n.execMu.Unlock()

	n.mu.Lock()
	head := n.chain.Head().Header
	n.mu.Unlock()
	if b.Header.Number <= head.Number {
		known, held := n.chain.HashAt(b.Header.Number)
		if !held {
			// A pruned (snapshot fast-synced) chain no longer holds this
			// height and cannot distinguish a duplicate from a fork; old
			// gossip on a converged chain is treated as already known.
			return ErrAlreadyKnown
		}
		if known == b.Header.Hash() {
			return ErrAlreadyKnown
		}
		return fmt.Errorf("%w: height %d has %s, got %s",
			ErrFork, b.Header.Number, known.Short(), b.Header.Hash().Short())
	}
	if b.Header.Number != head.Number+1 {
		return fmt.Errorf("node: accept: %w: got %d, want %d",
			chain.ErrBadNumber, b.Header.Number, head.Number+1)
	}
	if b.Header.ParentHash != head.Hash() {
		return fmt.Errorf("node: accept: %w: got %s, want %s",
			chain.ErrBadParent, b.Header.ParentHash.Short(), head.Hash().Short())
	}

	if pre != nil && preErr != nil {
		return fmt.Errorf("node: %w", preErr)
	}
	snap := n.world.Snapshot()
	var err error
	if pre != nil {
		_, err = validator.ValidatePrechecked(n.runner, n.world, b, *pre, validator.Config{Workers: n.workers})
	} else {
		_, err = validator.Validate(n.runner, n.world, b, validator.Config{Workers: n.workers})
	}
	if err != nil {
		n.world.Restore(snap)
		return fmt.Errorf("node: %w", err)
	}

	// WAL first, under execMu alone — see MineOne.
	if err := n.persistBlock(b); err != nil {
		n.world.Restore(snap)
		return fmt.Errorf("node: persist: %w", err)
	}
	n.markDurable(b.Header.Number)
	n.mu.Lock()
	err = n.chain.Append(b)
	if err == nil {
		n.validatedBlocks++
	}
	n.mu.Unlock()
	if err != nil {
		n.world.Restore(snap)
		return fmt.Errorf("node: append: %w", err)
	}
	n.recordDurable(b)
	n.maybeSnapshot(1)
	return nil
}

// MinePipelined mines up to blocks blocks of blockSize through the
// configured pipeline and then drains it, so on a nil error every mined
// block is durable and published. It stops early (without error) when the
// pool runs dry. The returned count is blocks sealed; if the pipeline
// aborted, the error says so and the aborted suffix's calls are back in
// the pool.
func (n *Node) MinePipelined(blocks, blockSize int) (int, error) {
	mined := 0
	for i := 0; i < blocks; i++ {
		if _, err := n.MineOne(blockSize); err != nil {
			if errors.Is(err, txpool.ErrEmpty) {
				break
			}
			_ = n.Flush()
			return mined, err
		}
		mined++
	}
	return mined, n.Flush()
}

// ErrStaleSnapshot reports an InstallSnapshot at or below the current
// head: installing it would rewind a chain that is already ahead.
var ErrStaleSnapshot = errors.New("node: snapshot not ahead of local head")

// InstallSnapshot adopts a state checkpoint from a peer — the receiving
// half of snapshot fast-sync. The encoded state must hash to the state
// root the checkpoint header claims (self-consistency); trust in the
// header itself is the fast-sync trade-off, exactly like trusting a
// configured genesis. The chain restarts pruned at the checkpoint
// height, the mempool is untouched, and a durable node drops its now
// disconnected history and re-roots its log at the checkpoint.
func (n *Node) InstallSnapshot(s persist.Snapshot) error {
	n.execMu.Lock()
	defer n.execMu.Unlock()
	// The in-memory swap happens under n.mu; the checkpoint's durability
	// write runs after it, outside the bookkeeping lock (execMu, still
	// held, is what keeps the world at a block boundary throughout).
	log, err := n.installSnapshotState(s)
	if err != nil {
		return err
	}
	if log != nil {
		if err := log.InstallSnapshot(s); err != nil {
			// State is installed and consistent; only durability of the
			// checkpoint failed. Surface it — the caller may retry sync
			// into a healthier directory.
			return fmt.Errorf("node: install snapshot: %w", err)
		}
	}
	return nil
}

// installSnapshotState swaps the node's in-memory world and chain to the
// checkpoint and returns the log (if any) for the caller's durability
// write. Caller holds execMu.
func (n *Node) installSnapshotState(s persist.Snapshot) (*persist.Log, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s.Height() <= n.chain.Head().Header.Number {
		return nil, fmt.Errorf("%w: snapshot %d, head %d", ErrStaleSnapshot, s.Height(), n.chain.Head().Header.Number)
	}
	old := n.world.Snapshot()
	if err := n.world.RestoreState(s.State); err != nil {
		n.world.Restore(old)
		return nil, fmt.Errorf("node: install snapshot: %w", err)
	}
	root, err := n.world.StateRoot()
	if err != nil {
		n.world.Restore(old)
		return nil, fmt.Errorf("node: install snapshot: state root: %w", err)
	}
	if root != s.Header.StateRoot {
		n.world.Restore(old)
		return nil, fmt.Errorf("node: install snapshot %d: state hashes to %s, header claims %s",
			s.Height(), root.Short(), s.Header.StateRoot.Short())
	}
	n.chain = chain.NewAt(s.Header)
	n.sinceSnap = 0
	n.lastSnapHeight.Store(s.Height())
	// The installed checkpoint is this chain's new root: everything the
	// node now holds is at least as durable as the snapshot itself.
	n.markDurable(s.Height())
	return n.log, nil
}

// SnapshotNow returns a state checkpoint: a durable node serves its
// newest persisted snapshot (cheap — no state encoding, no lock held
// against mining; the fast-syncing peer replays the tail through full
// validation anyway), a non-durable node generates one at the current
// head on the spot (holding execMu, so the world is at a block
// boundary). This is what GET /snapshot serves, which is why any node
// can seed a fast-syncing late joiner.
func (n *Node) SnapshotNow() (persist.Snapshot, error) {
	if n.log != nil {
		if s := n.log.LatestSnapshot(); s != nil {
			return *s, nil
		}
	}
	n.execMu.Lock()
	defer n.execMu.Unlock()
	// A durable pipelining node drains its window first: a generated
	// checkpoint must describe a durable boundary, never a sealed-not-
	// durable head a crash could void — the same rule the /head and
	// /blocks gates enforce. (execMu is held, so nothing new seals while
	// the writer drains; its verdicts take only n.mu.)
	if n.writer != nil {
		if err := n.writer.Flush(); err != nil {
			return persist.Snapshot{}, fmt.Errorf("node: snapshot: %w", err)
		}
	}
	head := n.chain.Head().Header
	state, err := n.world.EncodeState()
	if err != nil {
		return persist.Snapshot{}, fmt.Errorf("node: snapshot: %w", err)
	}
	return persist.Snapshot{Header: head, State: state}, nil
}

// Status summarizes the node.
type Status struct {
	Height          uint64     `json:"height"`
	HeadHash        types.Hash `json:"headHash"`
	PoolLen         int        `json:"poolLen"`
	Engine          string     `json:"engine"`
	MinedBlocks     int        `json:"minedBlocks"`
	ValidatedBlocks int        `json:"validatedBlocks"`
	TotalRetries    int        `json:"totalRetries"`
	// DurableHeight is the newest block the persistence layer has
	// acknowledged; Height - DurableHeight is the sealed-not-durable
	// pipeline window. On a node without a data dir it equals Height —
	// nothing is ever durable, so the distinction is vacuous.
	DurableHeight uint64 `json:"durableHeight"`
	// PipelineDepth and InFlight describe the production pipeline: the
	// configured window, and how many blocks currently sit between their
	// seal and their durability verdict (0 unless PipelineDepth > 1).
	PipelineDepth int `json:"pipelineDepth,omitempty"`
	InFlight      int `json:"inFlight,omitempty"`
	// Persistent reports whether the node runs with a durable data dir;
	// RecoveredBlocks and SnapshotHeight describe its recovery state.
	// SnapshotErrors counts failed checkpoint writes since start — any
	// non-zero value means the WAL is growing unpruned.
	Persistent      bool   `json:"persistent"`
	RecoveredBlocks int    `json:"recoveredBlocks,omitempty"`
	SnapshotHeight  uint64 `json:"snapshotHeight,omitempty"`
	SnapshotErrors  int64  `json:"snapshotErrors,omitempty"`
	// WAL I/O counters (persistent nodes): appends and framed bytes
	// written, fsync count and summed latency in microseconds, and how
	// group commits batched — the numbers that attribute a block rate to
	// the disk.
	WalAppends      int64 `json:"walAppends,omitempty"`
	WalBytesWritten int64 `json:"walBytesWritten,omitempty"`
	WalFsyncs       int64 `json:"walFsyncs,omitempty"`
	WalFsyncMicros  int64 `json:"walFsyncMicros,omitempty"`
	WalGroupCommits int64 `json:"walGroupCommits,omitempty"`
	WalMaxGroup     int   `json:"walMaxGroup,omitempty"`
	// ChainBase is the oldest height the node still holds (non-zero on a
	// fast-synced, pruned node).
	ChainBase uint64 `json:"chainBase,omitempty"`
	// Mempool is the sharded pool's admission accounting: cumulative
	// verdict counters, evictions, byte footprint and per-shard
	// occupancy.
	Mempool mempool.StatsSnapshot `json:"mempool"`
	// ImportMode is the staged-import rollout switch (off|shadow|on);
	// ImportDivergences counts shadow-mode verdict disagreements between
	// the pipeline's stateless phase and the serial recomputation. Any
	// non-zero value blocks promotion from shadow to on.
	ImportMode        string `json:"importMode"`
	ImportDivergences int64  `json:"importDivergences,omitempty"`
}

// CurrentStatus snapshots node statistics. It never blocks behind an
// in-flight block execution (see MineOne's locking discipline).
func (n *Node) CurrentStatus() Status {
	// n.eng is fixed at construction, so its kind is read before taking
	// the lock rather than calling into the engine under it.
	engineKind := n.eng.Kind().String()
	n.mu.Lock()
	defer n.mu.Unlock()
	head := n.chain.Head()
	st := Status{
		Height:          head.Header.Number,
		HeadHash:        head.Header.Hash(),
		PoolLen:         n.pool.Len(),
		Engine:          engineKind,
		MinedBlocks:     n.minedBlocks,
		ValidatedBlocks: n.validatedBlocks,
		TotalRetries:    n.totalRetries,
		DurableHeight:   head.Header.Number,
		InFlight:        len(n.inflight),
		ChainBase:       n.chain.Base(),
	}
	st.ImportMode = n.importMode.String()
	st.ImportDivergences = n.importDivergences.Load()
	if n.prod != nil {
		st.PipelineDepth = n.prod.Depth()
	}
	st.Mempool = n.pool.Stats()
	if n.log != nil {
		st.Persistent = true
		st.DurableHeight = n.durableHeight.Load()
		st.RecoveredBlocks = n.recoveredBlocks
		st.SnapshotErrors = n.snapshotErrs.Load()
		st.SnapshotHeight = n.lastSnapHeight.Load()
		// MetricsSnapshot is lock-free (atomic counters), so this cannot
		// stall the status path behind an in-flight fsync.
		m := n.log.MetricsSnapshot()
		st.WalAppends = m.Appends
		st.WalBytesWritten = m.BytesWritten
		st.WalFsyncs = m.Fsyncs
		st.WalFsyncMicros = m.FsyncTime.Microseconds()
		st.WalGroupCommits = m.GroupCommits
		st.WalMaxGroup = m.MaxGroup
	}
	return st
}
