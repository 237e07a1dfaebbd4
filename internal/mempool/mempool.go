// Package mempool is the sharded, admission-controlled transaction
// pool that fronts the miner. It keeps the selection contract the miner
// and pipeline depend on: SelectBatch/RequeueBatch merge by a global
// arrival sequence, all three selection policies (fifo, spread,
// lockhint) run the window scans of txpool.SelectWindow, and a requeued
// batch lands back at exactly its original arrival position.
//
// Layout: pending transactions are sharded by sender-address hash (an
// FNV-1a of the address bytes — deterministic across runs, so a replayed
// admission sequence shards identically), each shard guarded by its own
// mutex, with one global atomic arrival sequence. Per-shard queues are
// kept sorted by (priority desc, seq asc): with every priority equal —
// the trusted-path default — that degenerates to pure arrival order,
// which is how the existing miner tests pass unmodified; with priority
// lanes in use, SelectBatch's cross-shard merge yields higher lanes
// first and FIFO-by-arrival within a lane.
//
// Two intake paths exist. SubmitTrusted/SubmitAllTrusted bypass
// admission entirely — they serve the node's own traffic (workload
// batches, WAL restart restore) which may legitimately contain
// byte-identical calls (a double-vote pair is two distinct ballot
// transactions). Admit runs the ordered admission pipeline (see
// admission.go) and is the /v1 ingest path.
package mempool

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"contractstm/internal/contract"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

// entry is one pooled transaction. The embedded txpool.Entry carries
// the call and the lock-hint cache the shared window scans fill.
type entry struct {
	txpool.Entry
	seq      int64
	id       types.Hash
	sender   types.Address
	priority uint8
	size     int64
}

// entryBefore is the per-shard queue order: priority lanes first,
// arrival order within a lane. Seqs are globally unique, so the order
// is total.
func entryBefore(a, b *entry) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// senderState is one sender's admission bookkeeping within a shard:
// occupancy (slots, bytes) and the token bucket. States are pruned
// once the sender has no queued entries and a full bucket — an idle
// sender costs nothing, but a draining bucket is retained so a flooder
// cannot reset its rate limit by letting its queue empty.
type senderState struct {
	entries []*entry
	bytes   int64
	bucket  tokenBucket
}

// shard is one lock stripe of the pool.
type shard struct {
	mu      sync.Mutex
	queue   []*entry // sorted by entryBefore
	known   map[types.Hash]int
	senders map[types.Address]*senderState
	bytes   int64
	// admitsSincePrune triggers the idle-sender sweep (see pruneIdle).
	admitsSincePrune int
}

// Pool is the sharded mempool. It is safe for concurrent use; Submit
// paths touch one shard, selection paths lock all shards in index
// order.
type Pool struct {
	cfg    Config
	shards []*shard
	// perShardBytes partitions Config.MaxBytes evenly across shards:
	// eviction is local to the admitting shard, so no admission ever
	// needs two shard locks (no lock-order hazards). 0 = unlimited.
	perShardBytes int64

	nextSeq atomic.Int64
	count   atomic.Int64
	bytes   atomic.Int64

	// scoreMu guards scores. Lock order: shard locks (ascending) before
	// scoreMu; ReportConflicts paths take scoreMu alone.
	scoreMu sync.Mutex
	scores  txpool.Scores

	stats stats
}

// New returns an empty pool with cfg's limits (zero values are
// permissive; see Config).
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, scores: txpool.NewScores()}
	p.shards = make([]*shard, cfg.Shards)
	for i := range p.shards {
		p.shards[i] = &shard{
			known:   make(map[types.Hash]int),
			senders: make(map[types.Address]*senderState),
		}
	}
	if cfg.MaxBytes > 0 {
		p.perShardBytes = cfg.MaxBytes / int64(cfg.Shards)
		if p.perShardBytes < 1 {
			p.perShardBytes = 1
		}
	}
	return p
}

// shardFor maps a sender to its shard by FNV-1a over the address
// bytes. Deterministic by design: two pools fed the same sequence of
// admissions make identical shard placements, hence identical
// occupancy verdicts.
func (p *Pool) shardFor(sender types.Address) *shard {
	h := uint64(14695981039346656037)
	for _, b := range sender {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return p.shards[h%uint64(len(p.shards))]
}

// txIDOf derives the content-addressed transaction ID — the same
// derivation the wire layer uses (wire.TxIDOf), duplicated here so the
// pool does not depend on the API packages.
func txIDOf(c contract.Call) (types.Hash, int64) {
	enc := c.EncodeForHash()
	return types.HashBytes(enc), int64(len(enc))
}

// newEntry builds a pool entry for a call, assigning the next global
// arrival sequence.
func (p *Pool) newEntry(c contract.Call, priority uint8) *entry {
	id, size := txIDOf(c)
	return &entry{
		Entry:    txpool.Entry{Call: c},
		seq:      p.nextSeq.Add(1) - 1,
		id:       id,
		sender:   c.Sender,
		priority: priority,
		size:     size,
	}
}

// insertLocked places e into the shard queue at its (priority, seq)
// position and updates every occupancy counter. Caller holds s.mu.
func (p *Pool) insertLocked(s *shard, e *entry) {
	i := sort.Search(len(s.queue), func(i int) bool { return entryBefore(e, s.queue[i]) })
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = e
	s.known[e.id]++
	ss := s.senders[e.sender]
	if ss == nil {
		ss = &senderState{}
		s.senders[e.sender] = ss
	}
	ss.entries = append(ss.entries, e)
	ss.bytes += e.size
	s.bytes += e.size
	p.count.Add(1)
	p.bytes.Add(e.size)
}

// removeLocked unlinks e from the shard queue and reverses every
// occupancy counter. Caller holds s.mu; e must be queued in s.
func (p *Pool) removeLocked(s *shard, e *entry) {
	i := sort.Search(len(s.queue), func(i int) bool { return !entryBefore(s.queue[i], e) })
	for i < len(s.queue) && s.queue[i] != e {
		i++ // duplicates share (priority, seq) never — seqs are unique — but be safe
	}
	if i == len(s.queue) {
		return
	}
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	p.forgetLocked(s, e)
}

// forgetLocked reverses e's occupancy accounting without touching the
// queue slice — selection compacts queues wholesale and calls this per
// removed entry.
func (p *Pool) forgetLocked(s *shard, e *entry) {
	if n := s.known[e.id] - 1; n <= 0 {
		delete(s.known, e.id)
	} else {
		s.known[e.id] = n
	}
	if ss := s.senders[e.sender]; ss != nil {
		for j, se := range ss.entries {
			if se == e {
				ss.entries = append(ss.entries[:j], ss.entries[j+1:]...)
				break
			}
		}
		ss.bytes -= e.size
		if len(ss.entries) == 0 && ss.bucket.full(p.cfg) {
			delete(s.senders, e.sender)
		}
	}
	s.bytes -= e.size
	p.count.Add(-1)
	p.bytes.Add(-e.size)
}

// SubmitTrusted enqueues a call from the node's own intake (priority
// 0), bypassing admission control: no dedup, no caps, no budget. The
// trusted path must accept byte-identical calls — workload batches
// legitimately contain them.
func (p *Pool) SubmitTrusted(call contract.Call) {
	e := p.newEntry(call, 0)
	s := p.shardFor(e.sender)
	s.mu.Lock()
	p.insertLocked(s, e)
	s.mu.Unlock()
}

// SubmitAllTrusted enqueues calls in order, atomically with respect to
// selection: all shard locks are held while the batch lands, so a
// concurrent SelectBatch can never observe a prefix of the batch.
func (p *Pool) SubmitAllTrusted(calls []contract.Call) {
	p.lockAll()
	defer p.unlockAll()
	for _, c := range calls {
		e := p.newEntry(c, 0)
		p.insertLocked(p.shardFor(e.sender), e)
	}
}

func (p *Pool) lockAll() {
	for _, s := range p.shards {
		s.mu.Lock()
	}
}

func (p *Pool) unlockAll() {
	for i := len(p.shards) - 1; i >= 0; i-- {
		p.shards[i].mu.Unlock()
	}
}

// Selection is a selected batch plus the bookkeeping to return it to
// its original arrival position. Entries retain their seq, priority and
// accounting identity, so RequeueBatch restores them exactly.
type Selection struct {
	Calls   []contract.Call
	entries []*entry
}

// Len reports the selected call count.
func (s Selection) Len() int { return len(s.Calls) }

// SelectBatch removes and returns up to blockSize transactions under
// the policy, merging all shards into one (priority desc, seq asc)
// window and running the txpool window scan over it. Returns txpool.ErrEmpty when nothing is queued anywhere.
func (p *Pool) SelectBatch(policy txpool.Policy, blockSize int) (Selection, error) {
	if blockSize <= 0 {
		return Selection{}, errors.New("mempool: non-positive block size")
	}
	p.lockAll()
	defer p.unlockAll()
	total := 0
	for _, s := range p.shards {
		total += len(s.queue)
	}
	if total == 0 {
		return Selection{}, txpool.ErrEmpty
	}
	window := blockSize * p.cfg.WindowFactor
	if window > total {
		window = total
	}

	// K-way merge of the shard queue heads builds the window prefix of
	// the global order. heads[i] is shard i's next unmerged index; the
	// merged window entries are, per shard, a prefix of its queue.
	heads := make([]int, len(p.shards))
	winEntries := make([]*entry, 0, window)
	for len(winEntries) < window {
		best := -1
		for si, s := range p.shards {
			if heads[si] >= len(s.queue) {
				continue
			}
			if best < 0 || entryBefore(s.queue[heads[si]], p.shards[best].queue[heads[best]]) {
				best = si
			}
		}
		winEntries = append(winEntries, p.shards[best].queue[heads[best]])
		heads[best]++
	}

	win := make([]*txpool.Entry, len(winEntries))
	for i, e := range winEntries {
		win[i] = &e.Entry
	}
	p.scoreMu.Lock()
	idx := txpool.SelectWindow(policy, blockSize, win, &p.scores)
	p.scoreMu.Unlock()

	sel := Selection{
		Calls:   make([]contract.Call, len(idx)),
		entries: make([]*entry, len(idx)),
	}
	chosen := make(map[*entry]bool, len(idx))
	for i, wi := range idx {
		e := winEntries[wi]
		sel.Calls[i] = e.Call
		sel.entries[i] = e
		chosen[e] = true
	}

	// Compact each shard: the window covered queue prefix heads[si], and
	// the chosen entries are a subset of those prefixes.
	for si, s := range p.shards {
		if heads[si] == 0 {
			continue
		}
		kept := s.queue[:0]
		for i, e := range s.queue {
			if i < heads[si] && chosen[e] {
				p.forgetLocked(s, e)
				continue
			}
			kept = append(kept, e)
		}
		for i := len(kept); i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue = kept
	}
	return sel, nil
}

// Select removes and returns up to blockSize calls (see SelectBatch).
func (p *Pool) Select(policy txpool.Policy, blockSize int) ([]contract.Call, error) {
	sel, err := p.SelectBatch(policy, blockSize)
	if err != nil {
		return nil, err
	}
	return sel.Calls, nil
}

// RequeueBatch returns a selected-but-unmined batch to the pool at its
// original arrival position: every entry keeps its original seq, so
// re-inserting restores the exact pre-selection global order no matter
// how many batches come back or in what order. Requeue is never
// rejected and never re-runs admission — the entries were already
// admitted once — so a requeued batch may transiently exceed byte or
// slot budgets; subsequent admissions see the restored occupancy and
// shed accordingly.
func (p *Pool) RequeueBatch(sel Selection) {
	if len(sel.entries) == 0 {
		return
	}
	p.lockAll()
	defer p.unlockAll()
	for _, e := range sel.entries {
		p.insertLocked(p.shardFor(e.sender), e)
	}
}

// Len reports queued transactions across all shards.
func (p *Pool) Len() int { return int(p.count.Load()) }

// Bytes reports the pool's encoded-byte footprint.
func (p *Pool) Bytes() int64 { return p.bytes.Load() }

// PendingCalls returns every queued call in global arrival (seq)
// order: the persistence layer saves these on shutdown, and a
// restarted node re-submits them through the trusted path in the same
// order. Priorities are intake-side quality-of-service state, not
// consensus state, and are deliberately not persisted — a restart
// flattens every survivor back to the arrival lane.
func (p *Pool) PendingCalls() []contract.Call {
	p.lockAll()
	defer p.unlockAll()
	all := make([]*entry, 0, p.count.Load())
	for _, s := range p.shards {
		all = append(all, s.queue...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]contract.Call, len(all))
	for i, e := range all {
		out[i] = e.Call
	}
	return out
}

// ReportConflicts feeds back transactions that needed speculative
// retries in a mined block (engine RetriedTxs); subsequent spread
// selections cap their (contract, function) groups.
func (p *Pool) ReportConflicts(calls []contract.Call) {
	p.scoreMu.Lock()
	defer p.scoreMu.Unlock()
	p.scores.AddConflicts(calls)
}

// ReportConflictPairs feeds back pairs of calls connected by a
// happens-before edge in a mined block (engine.Stats.ConflictPairs);
// PolicyLockHint reads the lock-hints they share.
func (p *Pool) ReportConflictPairs(pairs [][2]contract.Call) {
	p.scoreMu.Lock()
	defer p.scoreMu.Unlock()
	p.scores.AddConflictPairs(pairs)
}
