package txpool

import (
	"testing"

	"contractstm/internal/contract"
	"contractstm/internal/types"
)

func scoreCall(sender, target uint64, fn string) contract.Call {
	return contract.Call{
		Sender:   types.AddressFromUint64(sender),
		Contract: types.AddressFromUint64(target),
		Function: fn,
		GasLimit: 100_000,
	}
}

// TestConflictScoreStaysBounded feeds sustained conflict reports with
// ever-new (contract, function) pairs and checks the score map neither
// grows past its cap nor keeps stale entries alive forever.
func TestConflictScoreStaysBounded(t *testing.T) {
	sc := NewScores()
	for round := 0; round < 200; round++ {
		batch := make([]contract.Call, 50)
		for i := range batch {
			batch[i] = scoreCall(1, uint64(round*1000+i), "hot")
		}
		sc.AddConflicts(batch)
		if n := len(sc.conflictScore); n > maxConflictEntries {
			t.Fatalf("round %d: %d conflict entries, cap %d", round, n, maxConflictEntries)
		}
	}
	if n := len(sc.conflictScore); n == 0 || n > maxConflictEntries {
		t.Fatalf("final conflict entries = %d, want (0, %d]", n, maxConflictEntries)
	}
	// Decay drains a score that stops being reported: a single entry
	// reported once disappears after enough unrelated traffic.
	fresh := NewScores()
	fresh.AddConflicts([]contract.Call{scoreCall(7, 7, "once")})
	for i := 0; i < conflictDecayEvery; i++ {
		fresh.AddConflicts([]contract.Call{scoreCall(8, 8, "noise")})
	}
	if _, alive := fresh.conflictScore[funcHint{contract: types.AddressFromUint64(7), function: "once"}]; alive {
		t.Fatal("stale conflict score survived decay")
	}
}

// TestLockHintScoreStaysBounded mirrors the conflict-score bound: a table
// fed an unbounded stream of distinct conflict pairs holds a capped map.
func TestLockHintScoreStaysBounded(t *testing.T) {
	sc := NewScores()
	for i := uint64(0); i < 4*maxConflictEntries; i += 2 {
		a, b := scoreCall(i, 1, "transfer"), scoreCall(i, 1, "transfer")
		a.Args = []any{types.AddressFromUint64(i)}
		b.Args = []any{types.AddressFromUint64(i + 1)}
		sc.AddConflictPairs([][2]contract.Call{{a, b}})
	}
	if got := len(sc.hintScore); got > maxConflictEntries {
		t.Fatalf("hint map grew to %d entries, cap is %d", got, maxConflictEntries)
	}
}
