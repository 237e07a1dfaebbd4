// Package txpool holds the miner's block selection policies: given a
// window of pending calls, which ones go into the next block. The pool
// itself is internal/mempool, which runs these scans over its sharded
// queues.
//
// Besides the baseline FIFO selection, the package implements the
// conflict-spreading policy the paper sketches in §7.3: "Miners could also
// choose transactions so as to reduce the likelihood of conflict, say by
// including only those contracts that operate on disjoint data sets."
// Statically, a miner cannot know the exact abstract locks a Turing-
// complete contract will take (§1), but it can use cheap syntactic hints —
// the target contract and the sender — to spread obviously-colliding
// transactions across different blocks. TestSpreadReducesMinerRetries
// measures the effect on miner retries.
//
// PolicyLockHint refines the idea with feedback from the execution engine:
// every call carries a set of static lock-hints — (contract, function)
// plus refinements by sender and by address-typed arguments — and the
// happens-before edges of mined blocks are reported back as conflict
// pairs. A hint two conflicting calls *shared* is evidence that it
// approximates a real abstract lock, so later selections avoid packing
// two calls with the same hot hint into one block. Unlike PolicySpread's
// per-function cap, this throttles only the hints that actually
// conflicted, so a workload with a few hot keys (see workload.KindHotCold)
// keeps its cold majority flowing at full block size.
package txpool

import (
	"errors"

	"contractstm/internal/contract"
	"contractstm/internal/types"
)

// Policy selects how a block's transactions are picked.
type Policy int

const (
	// PolicyFIFO takes transactions strictly in arrival order.
	PolicyFIFO Policy = iota + 1
	// PolicySpread takes transactions in arrival order but defers, within
	// the scanned window, transactions whose (contract, sender) hint
	// collides with one already chosen for this block — the paper's
	// "disjoint data sets" heuristic. Deferred transactions stay queued
	// for later blocks; no transaction is starved because each block's
	// scan starts at the queue head.
	PolicySpread
	// PolicyLockHint packs blocks using static lock-hints with engine
	// feedback: a call is deferred when one of its hints both (a) was
	// shared by a conflicting pair in an earlier block (positive score)
	// and (b) is already claimed by a call chosen for this block. Hints
	// with no conflict evidence never throttle anything.
	PolicyLockHint
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicySpread:
		return "spread"
	case PolicyLockHint:
		return "lockhint"
	default:
		return "policy?"
	}
}

// ParsePolicy resolves a policy name as used by command-line flags.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return PolicyFIFO, nil
	case "spread":
		return PolicySpread, nil
	case "lockhint":
		return PolicyLockHint, nil
	default:
		return 0, errors.New("txpool: unknown policy " + s + " (want fifo, spread or lockhint)")
	}
}

// ErrEmpty is returned by a selection from an empty pool.
var ErrEmpty = errors.New("txpool: empty")

// conflictDecayEvery is how many reported conflicts trigger a decay pass
// (every score halves; zeroed entries are dropped).
const conflictDecayEvery = 256

// maxConflictEntries bounds the conflict-score and hint-score maps; when
// exceeded, the lowest-scored entries are evicted first.
const maxConflictEntries = 1024

// decayScores halves every score, dropping zeroed entries.
func decayScores[K comparable](m map[K]int) {
	for k, v := range m {
		if v /= 2; v == 0 {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
}

// capScores evicts lowest-scored entries beyond maxConflictEntries.
func capScores[K comparable](m map[K]int) {
	for len(m) > maxConflictEntries {
		min := 0
		for _, v := range m {
			if min == 0 || v < min {
				min = v
			}
		}
		for k, v := range m {
			if v <= min && len(m) > maxConflictEntries {
				delete(m, k)
			}
		}
	}
}

// The spread policy uses two static conflict hints:
//
//   - senderHint (contract, sender): two calls from one sender to one
//     contract almost certainly touch the same per-sender state
//     (double-votes, repeated withdrawals); at most one per block.
//   - funcHint (contract, function): many calls to one function of one
//     contract may pile onto shared state (bidPlusOne on the highest
//     bid); capped at a fraction of the block.
//
// Both are heuristics — a Turing-complete contract's exact lock set is
// unknowable statically (§1) — and both only defer, never drop.
type senderHint struct {
	contract types.Address
	sender   types.Address
}

type funcHint struct {
	contract types.Address
	function string
}

// lockHint is the lock-hint policy's static approximation of one abstract
// lock. Two shapes share the struct: the coarse form (refined == false)
// is a per-function funcHint, and the refined form names an address the
// call touches — its sender or an address-typed argument — which is what
// a per-key lock (a balance, a voter record) is actually keyed by.
// Refined hints are deliberately role-free: a transfer A→B and a transfer
// B→A touch the same two balances even though sender and argument swap
// roles, and the policy must see that overlap to keep the pair apart.
// The key is all comparable value types (no string rendering): hintsOf
// runs for every window entry of every selection scan.
type lockHint struct {
	contract types.Address
	function string
	addr     types.Address
	refined  bool
}

func coarseHint(c contract.Call) lockHint {
	return lockHint{contract: c.Contract, function: c.Function}
}

// hintsOf derives a call's static lock-hints: refined per-address hints
// first (sender, then address arguments), the coarse (contract, function)
// hint last.
func hintsOf(c contract.Call) []lockHint {
	hints := make([]lockHint, 0, len(c.Args)+2)
	hints = append(hints, lockHint{contract: c.Contract, addr: c.Sender, refined: true})
	for _, a := range c.Args {
		if addr, ok := a.(types.Address); ok {
			hints = append(hints, lockHint{contract: c.Contract, addr: addr, refined: true})
		}
	}
	return append(hints, coarseHint(c))
}
