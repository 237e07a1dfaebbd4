// Admission control: the ordered decision pipeline in front of the
// sharded pool. Every untrusted submission walks the same fixed stage
// order — duplicate check, rate limit, sender slots, shard occupancy,
// byte budget — so the verdict for any submission sequence is a pure
// function of the sequence and the config (the fuzz target exploits
// exactly that). Wall-clock time enters only through the injected
// Config.Now; with Now nil the rate limiter is off and decisions are
// fully deterministic.

package mempool

import (
	"sync/atomic"
	"time"

	"contractstm/internal/contract"
	"contractstm/internal/types"
)

// Config tunes the pool. The zero value of every limit is permissive
// (no cap), so a trusted-only deployment never sheds; real limits are
// set by nodesrv flags and bench configs.
type Config struct {
	// Shards is the lock-stripe count (default 16). 1 degenerates to a
	// single-lock pool — the bench sweep compares exactly that.
	Shards int
	// WindowFactor bounds the selection window (window = factor *
	// blockSize; default 4).
	WindowFactor int
	// PerSenderSlots caps queued transactions per sender; at the cap a
	// strictly-higher-priority submission replaces the sender's worst
	// queued entry (the nonce-slot replacement rule). 0 = unlimited.
	PerSenderSlots int
	// RatePerSec is the per-sender token-bucket refill rate; Burst is
	// the bucket depth (default 8 when a rate is set). RatePerSec 0 or
	// Now nil disables rate limiting.
	RatePerSec float64
	Burst      int
	// MaxBytes bounds the pool's total encoded-byte footprint,
	// partitioned evenly across shards; when the admitting shard's
	// partition is full, lowest-priority entries of the fattest senders
	// are evicted to make room — or the submission itself is shed when
	// nothing cheaper is queued. 0 = unlimited.
	MaxBytes int64
	// MaxShardEntries caps one shard's queue length (load shedding
	// before memory pressure). 0 = unlimited.
	MaxShardEntries int
	// Now supplies wall-clock time to the rate limiter. The pool never
	// reads the clock directly (it is consensus-adjacent code under the
	// walltime invariant); the node injects time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.WindowFactor <= 0 {
		c.WindowFactor = 4
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	return c
}

// rateLimiting reports whether the token bucket is active.
func (c Config) rateLimiting() bool { return c.RatePerSec > 0 && c.Now != nil }

// Verdict is an admission decision.
type Verdict int

const (
	// VerdictAdmitted: queued.
	VerdictAdmitted Verdict = iota + 1
	// VerdictReplaced: queued by replacing the sender's lowest-priority
	// entry (sender was at its slot cap, submission had strictly higher
	// priority).
	VerdictReplaced
	// VerdictDuplicate: an identical transaction (same content-derived
	// TxID) is already queued in the pool.
	VerdictDuplicate
	// VerdictRateLimited: the sender's token bucket is empty.
	VerdictRateLimited
	// VerdictSenderLimit: the sender is at its slot cap and the
	// submission does not outrank any queued entry.
	VerdictSenderLimit
	// VerdictShardSaturated: the sender's shard is at MaxShardEntries.
	VerdictShardSaturated
	// VerdictPoolOverloaded: the shard's byte partition is full and the
	// submission outranks nothing evictable.
	VerdictPoolOverloaded
)

// String implements fmt.Stringer with the wire-stable reason names.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmitted:
		return "admitted"
	case VerdictReplaced:
		return "replaced"
	case VerdictDuplicate:
		return "duplicate"
	case VerdictRateLimited:
		return "rate_limited"
	case VerdictSenderLimit:
		return "sender_limit"
	case VerdictShardSaturated:
		return "shard_saturated"
	case VerdictPoolOverloaded:
		return "pool_overloaded"
	default:
		return "verdict?"
	}
}

// Admitted reports whether the transaction is now queued.
func (v Verdict) Admitted() bool { return v == VerdictAdmitted || v == VerdictReplaced }

// Dropped is one transaction removed from the pool to make room —
// a replacement victim or a memory-pressure eviction. The node turns
// these into terminal evicted receipts.
type Dropped struct {
	ID   types.Hash
	Call contract.Call
}

// Decision is the full admission outcome for one submission.
type Decision struct {
	Verdict Verdict
	// TxID is the content-derived transaction ID (meaningful for every
	// verdict — a rejected submission still has an identity the client
	// can correlate).
	TxID types.Hash
	// RetryAfter is the pool's back-off hint for shed submissions
	// (rate-limit refill time; zero when the pool has no basis for an
	// estimate — the API layer clamps to its floor).
	RetryAfter time.Duration
	// Dropped lists transactions removed to admit this one.
	Dropped []Dropped
}

// tokenBucket is one sender's rate-limit state. Refill is lazy: tokens
// accrue on inspection from the elapsed time since the last top-up.
type tokenBucket struct {
	tokens float64
	last   time.Time
	primed bool
}

// take refills from the clock and consumes one token, reporting
// whether one was available and, if not, how long until one is. The
// token is consumed only on success — a shed submission must not also
// drain the sender's budget for its retry.
func (b *tokenBucket) take(cfg Config) (ok bool, wait time.Duration) {
	now := cfg.Now()
	burst := float64(cfg.Burst)
	if !b.primed {
		b.tokens, b.last, b.primed = burst, now, true
	} else if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * cfg.RatePerSec
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		deficit := 1 - b.tokens
		return false, time.Duration(deficit / cfg.RatePerSec * float64(time.Second))
	}
	b.tokens--
	return true, 0
}

// full reports whether the bucket is back at burst (or rate limiting
// is off) — the condition under which an empty sender state may be
// pruned without forgiving any spent budget.
func (b *tokenBucket) full(cfg Config) bool {
	if !cfg.rateLimiting() {
		return true
	}
	if !b.primed {
		return true
	}
	dt := cfg.Now().Sub(b.last)
	return b.tokens+dt.Seconds()*cfg.RatePerSec >= float64(cfg.Burst)
}

// stats are the pool's admission counters, atomics so Admit's hot path
// never takes a lock beyond its shard.
type stats struct {
	admitted       atomic.Int64
	replaced       atomic.Int64
	duplicate      atomic.Int64
	rateLimited    atomic.Int64
	senderLimit    atomic.Int64
	shardSaturated atomic.Int64
	poolOverloaded atomic.Int64
	evicted        atomic.Int64
}

// StatsSnapshot is a point-in-time read of the admission counters and
// occupancy, surfaced through GET /v1/status.
type StatsSnapshot struct {
	Admitted       int64 `json:"admitted"`
	Replaced       int64 `json:"replaced,omitempty"`
	Duplicate      int64 `json:"duplicate,omitempty"`
	RateLimited    int64 `json:"rateLimited,omitempty"`
	SenderLimit    int64 `json:"senderLimit,omitempty"`
	ShardSaturated int64 `json:"shardSaturated,omitempty"`
	PoolOverloaded int64 `json:"poolOverloaded,omitempty"`
	Evicted        int64 `json:"evicted,omitempty"`
	Len            int   `json:"len"`
	Bytes          int64 `json:"bytes"`
	ShardOccupancy []int `json:"shardOccupancy,omitempty"`
}

// Stats snapshots the admission counters and per-shard occupancy.
func (p *Pool) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		Admitted:       p.stats.admitted.Load(),
		Replaced:       p.stats.replaced.Load(),
		Duplicate:      p.stats.duplicate.Load(),
		RateLimited:    p.stats.rateLimited.Load(),
		SenderLimit:    p.stats.senderLimit.Load(),
		ShardSaturated: p.stats.shardSaturated.Load(),
		PoolOverloaded: p.stats.poolOverloaded.Load(),
		Evicted:        p.stats.evicted.Load(),
		Len:            int(p.count.Load()),
		Bytes:          p.bytes.Load(),
		ShardOccupancy: make([]int, len(p.shards)),
	}
	for i, s := range p.shards {
		s.mu.Lock()
		snap.ShardOccupancy[i] = len(s.queue)
		s.mu.Unlock()
	}
	return snap
}

// pruneEvery is how many admissions on one shard trigger an
// idle-sender sweep.
const pruneEvery = 4096

// Admit runs the admission pipeline for one untrusted submission and,
// on success, queues it. The stage order is fixed and documented in
// DESIGN.md; changing it changes the decision table the fuzz target
// locks down.
func (p *Pool) Admit(call contract.Call, priority uint8) Decision {
	id, size := txIDOf(call)
	s := p.shardFor(call.Sender)
	s.mu.Lock()
	d := p.admitLocked(s, call, priority, id, size)
	s.mu.Unlock()

	switch d.Verdict {
	case VerdictAdmitted:
		p.stats.admitted.Add(1)
	case VerdictReplaced:
		p.stats.replaced.Add(1)
	case VerdictDuplicate:
		p.stats.duplicate.Add(1)
	case VerdictRateLimited:
		p.stats.rateLimited.Add(1)
	case VerdictSenderLimit:
		p.stats.senderLimit.Add(1)
	case VerdictShardSaturated:
		p.stats.shardSaturated.Add(1)
	case VerdictPoolOverloaded:
		p.stats.poolOverloaded.Add(1)
	}
	if n := len(d.Dropped); n > 0 {
		if d.Verdict == VerdictReplaced {
			n-- // the replacement victim is counted under replaced
		}
		p.stats.evicted.Add(int64(n))
	}
	return d
}

// admitLocked is the pipeline body. Caller holds s.mu.
func (p *Pool) admitLocked(s *shard, call contract.Call, priority uint8, id types.Hash, size int64) Decision {
	d := Decision{TxID: id}

	// Stage 1 — duplicate rejection: an identical queued transaction
	// makes this submission a no-op; the caller already holds a receipt
	// for it.
	if s.known[id] > 0 {
		d.Verdict = VerdictDuplicate
		return d
	}

	// Stage 2 — per-sender rate limit.
	var ss *senderState
	if p.cfg.rateLimiting() {
		ss = s.senders[call.Sender]
		if ss == nil {
			ss = &senderState{}
			s.senders[call.Sender] = ss
		}
		ok, wait := ss.bucket.take(p.cfg)
		if !ok {
			d.Verdict, d.RetryAfter = VerdictRateLimited, wait
			return d
		}
	} else {
		ss = s.senders[call.Sender]
	}

	// Stage 3 — sender slot cap with priority replacement: at the cap,
	// a strictly-higher-priority submission replaces the sender's worst
	// (lowest-priority, then newest) queued entry.
	if p.cfg.PerSenderSlots > 0 && ss != nil && len(ss.entries) >= p.cfg.PerSenderSlots {
		victim := ss.entries[0]
		for _, e := range ss.entries[1:] {
			if e.priority < victim.priority ||
				(e.priority == victim.priority && e.seq > victim.seq) {
				victim = e
			}
		}
		if priority <= victim.priority {
			d.Verdict = VerdictSenderLimit
			return d
		}
		p.removeLocked(s, victim)
		d.Dropped = append(d.Dropped, Dropped{ID: victim.id, Call: victim.Call})
		p.insertLocked(s, p.newEntry(call, priority))
		d.Verdict = VerdictReplaced
		p.maybePruneLocked(s)
		return d
	}

	// Stage 4 — shard occupancy cap: shed before memory pressure.
	if p.cfg.MaxShardEntries > 0 && len(s.queue) >= p.cfg.MaxShardEntries {
		d.Verdict = VerdictShardSaturated
		return d
	}

	// Stage 5 — byte budget: evict strictly-lower-priority entries,
	// lowest lane first, fattest sender first, oldest first, until the
	// submission fits its shard partition; shed the submission itself
	// when nothing cheaper remains.
	if p.perShardBytes > 0 && s.bytes+size > p.perShardBytes {
		// Feasibility first: only entries in strictly lower lanes are
		// evictable (the sorted queue's tail suffix), and nothing is
		// removed unless the submission is guaranteed to fit afterwards —
		// a shed submission must not leave collateral evictions behind.
		need := s.bytes + size - p.perShardBytes
		var evictable int64
		for i := len(s.queue) - 1; i >= 0 && s.queue[i].priority < priority; i-- {
			if evictable += s.queue[i].size; evictable >= need {
				break
			}
		}
		if evictable < need {
			d.Verdict = VerdictPoolOverloaded
			return d
		}
		for s.bytes+size > p.perShardBytes {
			victim := p.evictionVictimLocked(s, priority)
			p.removeLocked(s, victim)
			d.Dropped = append(d.Dropped, Dropped{ID: victim.id, Call: victim.Call})
		}
	}

	p.insertLocked(s, p.newEntry(call, priority))
	d.Verdict = VerdictAdmitted
	p.maybePruneLocked(s)
	return d
}

// evictionVictimLocked picks the next memory-pressure victim: among
// the shard's lowest-priority entries (the queue tail lane), the
// oldest entry of the sender with the most queued bytes. Only entries
// in a strictly lower lane than the incoming priority are evictable —
// equal-priority churn would let a flooder displace honest traffic at
// its own lane. Caller holds s.mu.
func (p *Pool) evictionVictimLocked(s *shard, incoming uint8) *entry {
	if len(s.queue) == 0 {
		return nil
	}
	tail := s.queue[len(s.queue)-1]
	if tail.priority >= incoming {
		return nil
	}
	lane := tail.priority
	var best *entry
	var bestBytes int64
	for i := len(s.queue) - 1; i >= 0 && s.queue[i].priority == lane; i-- {
		e := s.queue[i]
		b := int64(0)
		if ss := s.senders[e.sender]; ss != nil {
			b = ss.bytes
		}
		// Strict > on bytes plus the backwards (seq-descending) walk
		// leaves the oldest entry of the fattest sender in best.
		if best == nil || b > bestBytes || (b == bestBytes && e.seq < best.seq) {
			best, bestBytes = e, b
		}
	}
	return best
}

// maybePruneLocked runs the idle-sender sweep every pruneEvery
// admissions on the shard. Caller holds s.mu.
func (p *Pool) maybePruneLocked(s *shard) {
	s.admitsSincePrune++
	if s.admitsSincePrune < pruneEvery {
		return
	}
	s.admitsSincePrune = 0
	// Pure predicate sweep — each sender is kept or deleted on its own
	// state alone, nothing observes the visit order, and no schedule,
	// commitment or encoding derives from it.
	//chainvet:allow(detmap) order-insensitive per-shard sweep: deletes idle sender buckets by a pure per-element predicate; iteration order cannot reach a schedule, commitment or encoding
	for addr, ss := range s.senders {
		if len(ss.entries) == 0 && ss.bucket.full(p.cfg) {
			delete(s.senders, addr)
		}
	}
}
