// Selection core: the per-policy window scans and the conflict-feedback
// scores they read. The sharded pool (internal/mempool) merges its
// per-shard queues into one window and calls these scans under its own
// locks.
package txpool

import "contractstm/internal/contract"

// Entry is one selectable call plus its cached static lock-hints.
// The mempool embeds it in its queue entries; the
// hint cache is filled lazily by the lock-hint scan (FIFO and spread
// selections never pay for it) and stays valid for the call's
// lifetime — hints are a pure function of the call.
type Entry struct {
	Call contract.Call
	// hints caches hintsOf(Call); nil until the lock-hint policy first
	// scans the entry.
	hints []lockHint
}

// Scores holds the engine's conflict feedback: per-(contract,function)
// retry counts read by the spread policy and per-lock-hint evidence
// read by the lock-hint policy. Methods are NOT synchronized — the
// owning pool serializes access under its own lock.
type Scores struct {
	// conflictScore counts observed speculative retries per (contract,
	// function); the spread policy caps only functions with a positive
	// score, so legitimately disjoint traffic is never throttled.
	// Scores decay geometrically every conflictDecayEvery reports and
	// the map is capped at maxConflictEntries.
	conflictScore map[funcHint]int
	// reportedSinceDecay counts conflict reports since the last decay pass.
	reportedSinceDecay int
	// hintScore scores static lock-hints by conflict evidence: a hint
	// both calls of a reported conflict pair share gets a point. Decays
	// and is capped exactly like conflictScore (separate counters).
	hintScore       map[lockHint]int
	pairsSinceDecay int
}

// NewScores returns an empty feedback table.
func NewScores() Scores {
	return Scores{
		conflictScore: make(map[funcHint]int),
		hintScore:     make(map[lockHint]int),
	}
}

// AddConflicts records transactions that needed speculative retries in
// a mined block. Caller must hold the owning pool's lock.
func (s *Scores) AddConflicts(calls []contract.Call) {
	for _, c := range calls {
		s.conflictScore[funcHint{contract: c.Contract, function: c.Function}]++
	}
	s.reportedSinceDecay += len(calls)
	if s.reportedSinceDecay >= conflictDecayEvery {
		s.reportedSinceDecay = 0
		decayScores(s.conflictScore)
	}
	capScores(s.conflictScore)
}

// AddConflictPairs records pairs of calls connected by a happens-before
// edge in a mined block, scoring the refined lock-hints both calls
// share (or their coarse hints when no refinement is shared). Caller
// must hold the owning pool's lock.
func (s *Scores) AddConflictPairs(pairs [][2]contract.Call) {
	for _, pr := range pairs {
		a, b := hintsOf(pr[0]), hintsOf(pr[1])
		shared := false
		for _, ha := range a {
			if !ha.refined {
				continue // coarse hint handled below
			}
			for _, hb := range b {
				if ha == hb {
					s.hintScore[ha]++
					shared = true
				}
			}
		}
		if !shared {
			s.hintScore[coarseHint(pr[0])]++
			s.hintScore[coarseHint(pr[1])]++
		}
	}
	s.pairsSinceDecay += len(pairs)
	if s.pairsSinceDecay >= conflictDecayEvery {
		s.pairsSinceDecay = 0
		decayScores(s.hintScore)
	}
	capScores(s.hintScore)
}

// SelectWindow picks up to blockSize entries from a selection window
// according to the policy, returning the chosen indices in pick order:
// policy-approved picks first (in scan order), then the FIFO backfill
// that tops up an under-full block from the deferred remainder. The
// window is the caller's candidate prefix in (priority, arrival) order,
// and sc is the caller's feedback table. The lock-hint scan caches
// derived hints on the entries, so the caller must pass pointers into
// its real queue (and hold whatever lock guards it).
func SelectWindow(policy Policy, blockSize int, win []*Entry, sc *Scores) []int {
	switch policy {
	case PolicySpread:
		return selectWindowSpread(blockSize, win, sc)
	case PolicyLockHint:
		return selectWindowLockHint(blockSize, win, sc)
	default:
		n := blockSize
		if n > len(win) {
			n = len(win)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
}

func selectWindowSpread(blockSize int, win []*Entry, sc *Scores) []int {
	funcCap := blockSize / 8
	if funcCap < 1 {
		funcCap = 1
	}
	seenSender := make(map[senderHint]bool, blockSize)
	funcCount := make(map[funcHint]int, blockSize)
	idx := make([]int, 0, blockSize)
	taken := make([]bool, len(win))
	for i := 0; i < len(win) && len(idx) < blockSize; i++ {
		c := win[i].Call
		sh := senderHint{contract: c.Contract, sender: c.Sender}
		fh := funcHint{contract: c.Contract, function: c.Function}
		if seenSender[sh] {
			continue
		}
		if sc.conflictScore[fh] > 0 && funcCount[fh] >= funcCap {
			continue
		}
		seenSender[sh] = true
		funcCount[fh]++
		taken[i] = true
		idx = append(idx, i)
	}
	return backfillWindow(blockSize, taken, idx)
}

// selectWindowLockHint scans the window taking calls in window order,
// deferring a call only when one of its hints has positive conflict
// evidence AND is already claimed by a call chosen for this block.
// Coarse hints use a generous per-block cap instead of exclusivity (a
// hot function is not a single lock); refined hints are exclusive (one
// hot sender / hot key per block).
func selectWindowLockHint(blockSize int, win []*Entry, sc *Scores) []int {
	coarseCap := blockSize / 8
	if coarseCap < 1 {
		coarseCap = 1
	}
	claimed := make(map[lockHint]bool, blockSize)
	coarseCount := make(map[lockHint]int, blockSize)
	idx := make([]int, 0, blockSize)
	taken := make([]bool, len(win))
scan:
	for i := 0; i < len(win) && len(idx) < blockSize; i++ {
		if win[i].hints == nil {
			win[i].hints = hintsOf(win[i].Call)
		}
		hints := win[i].hints
		for _, h := range hints {
			if sc.hintScore[h] <= 0 {
				continue
			}
			if !h.refined {
				if coarseCount[h] >= coarseCap {
					continue scan
				}
			} else if claimed[h] {
				continue scan
			}
		}
		for _, h := range hints {
			if !h.refined {
				coarseCount[h]++
			} else {
				claimed[h] = true
			}
		}
		taken[i] = true
		idx = append(idx, i)
	}
	return backfillWindow(blockSize, taken, idx)
}

// backfillWindow tops up an under-full block FIFO-style from the
// window's deferred entries: blocks never run empty while work is
// queued.
func backfillWindow(blockSize int, taken []bool, idx []int) []int {
	for i := 0; i < len(taken) && len(idx) < blockSize; i++ {
		if taken[i] {
			continue
		}
		taken[i] = true
		idx = append(idx, i)
	}
	return idx
}
