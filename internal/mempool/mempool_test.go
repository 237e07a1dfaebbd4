package mempool

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"contractstm/internal/contract"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

// testCall builds a transfer-shaped call; distinct (sender, nonce)
// pairs give distinct content-derived TxIDs, identical pairs give
// byte-identical calls. The nonce rides in the amount argument so
// tests can read it back from a drained call.
func testCall(sender, nonce uint64) contract.Call {
	return contract.Call{
		Sender:   types.AddressFromUint64(0xA000 + sender),
		Contract: types.AddressFromUint64(0xC0DE),
		Function: "transfer",
		Args:     []any{types.AddressFromUint64(0x7000 + nonce), nonce},
		GasLimit: 100_000,
	}
}

// richCall builds calls whose senders repeat every 5 and arguments every
// 7, across two contracts and two functions, so the spread and lock-hint
// policies have collisions to defer.
func richCall(i int) contract.Call {
	fn := "transfer"
	if i%3 == 0 {
		fn = "approve"
	}
	return contract.Call{
		Sender:   types.AddressFromUint64(0xA000 + uint64(i%5)),
		Contract: types.AddressFromUint64(0xC0DE + uint64(i%2)),
		Function: fn,
		Args:     []any{types.AddressFromUint64(0x7000 + uint64(i%7)), uint64(i)},
		GasLimit: 100_000,
	}
}

// inOrder returns n submissions cut into blocks of size in arrival order.
func inOrder(n, size int) [][]int {
	var blocks [][]int
	for i := 0; i < n; i += size {
		var b []int
		for j := i; j < n && j < i+size; j++ {
			b = append(b, j)
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// TestTrustedSelectionParity drains fixed submissions through the sharded
// pool under every policy and requires the block sequences (indices into
// the submissions) that the single-lock reference pool selected for the
// same submissions and feedback. The sharded merge plus the shared window
// scan must keep reproducing that selection exactly.
func TestTrustedSelectionParity(t *testing.T) {
	cases := []struct {
		name  string
		call  func(i int) contract.Call
		pairs [][2]int // conflict pairs reported besides calls[:10]
		want  map[txpool.Policy][][]int
	}{{
		// 17 senders and one function: no policy finds a collision, so
		// every policy selects arrival order.
		call: func(i int) contract.Call { return testCall(uint64(i%17), uint64(i)) },
		want: map[txpool.Policy][][]int{
			txpool.PolicyFIFO:     inOrder(100, 16),
			txpool.PolicySpread:   inOrder(100, 16),
			txpool.PolicyLockHint: inOrder(100, 16),
		},
	}, {
		name:  "colliding",
		call:  richCall,
		pairs: [][2]int{{0, 5}, {1, 8}, {2, 9}},
		want: map[txpool.Policy][][]int{
			txpool.PolicyFIFO: inOrder(100, 16),
			txpool.PolicySpread: {
				{0, 1, 2, 3, 4, 5, 6, 9, 7, 8, 10, 11, 12, 13, 14, 15},
				{16, 17, 18, 19, 20, 21, 24, 33, 22, 23, 25, 26, 27, 28, 29, 30},
				{31, 32, 34, 35, 36, 39, 48, 57, 37, 38, 40, 41, 42, 43, 44, 45},
				{46, 47, 49, 50, 51, 54, 63, 72, 52, 53, 55, 56, 58, 59, 60, 61},
				{62, 64, 65, 66, 67, 69, 78, 81, 68, 70, 71, 73, 74, 75, 76, 77},
				{79, 80, 82, 83, 84, 87, 96, 85, 86, 88, 89, 90, 91, 92, 93, 94},
				{95, 97, 98, 99},
			},
			txpool.PolicyLockHint: {
				{0, 1, 2, 3, 4, 5, 6, 9, 7, 8, 10, 11, 12, 13, 14, 15},
				{16, 17, 18, 19, 20, 21, 24, 27, 22, 23, 25, 26, 28, 29, 30, 31},
				{32, 33, 34, 35, 36, 37, 39, 42, 38, 40, 41, 43, 44, 45, 46, 47},
				{48, 49, 50, 51, 52, 53, 54, 57, 55, 56, 58, 59, 60, 61, 62, 63},
				{64, 65, 66, 67, 68, 69, 72, 75, 70, 71, 73, 74, 76, 77, 78, 79},
				{80, 81, 82, 83, 84, 85, 87, 90, 86, 88, 89, 91, 92, 93, 94, 95},
				{96, 97, 98, 99},
			},
		},
	}}
	for _, tc := range cases {
		for _, policy := range []txpool.Policy{txpool.PolicyFIFO, txpool.PolicySpread, txpool.PolicyLockHint} {
			name := policy.String()
			if tc.name != "" {
				name = tc.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				mp := New(Config{Shards: 8})
				var calls []contract.Call
				for i := 0; i < 100; i++ {
					calls = append(calls, tc.call(i))
				}
				for _, c := range calls {
					mp.SubmitTrusted(c)
				}
				mp.ReportConflicts(calls[:10])
				var pairs [][2]contract.Call
				for _, p := range tc.pairs {
					pairs = append(pairs, [2]contract.Call{calls[p[0]], calls[p[1]]})
				}
				mp.ReportConflictPairs(pairs)

				var got [][]int
				for {
					sel, err := mp.SelectBatch(policy, 16)
					if err != nil {
						break
					}
					var block []int
					for _, c := range sel.Calls {
						block = append(block, slices.IndexFunc(calls, func(o contract.Call) bool {
							return reflect.DeepEqual(c, o)
						}))
					}
					got = append(got, block)
				}
				if want := tc.want[policy]; !reflect.DeepEqual(got, want) {
					t.Fatalf("block sequence diverges from the golden selection\ngot:  %v\nwant: %v", got, want)
				}
				if mp.Len() != 0 {
					t.Fatalf("mempool not drained: %d left", mp.Len())
				}
			})
		}
	}
}

// TestRequeueRestoresArrivalOrder returns two selections out of order
// and requires the pool's global order to be exactly the original
// arrival order — the merge contract MinePipelined's abort path depends
// on.
func TestRequeueRestoresArrivalOrder(t *testing.T) {
	mp := New(Config{Shards: 4})
	var want []contract.Call
	for i := 0; i < 30; i++ {
		c := testCall(uint64(i), uint64(i))
		want = append(want, c)
		mp.SubmitTrusted(c)
	}
	sel1, err := mp.SelectBatch(txpool.PolicyFIFO, 10)
	if err != nil {
		t.Fatalf("select 1: %v", err)
	}
	sel2, err := mp.SelectBatch(txpool.PolicyFIFO, 10)
	if err != nil {
		t.Fatalf("select 2: %v", err)
	}
	mp.RequeueBatch(sel2) // deliberately out of order
	mp.RequeueBatch(sel1)
	if got := mp.PendingCalls(); !reflect.DeepEqual(got, want) {
		t.Fatalf("arrival order not restored\ngot:  %v\nwant: %v", got, want)
	}
}

func TestAdmitDedupAndReadmitAfterDrain(t *testing.T) {
	p := New(Config{Shards: 4})
	c := testCall(1, 1)
	if d := p.Admit(c, 0); d.Verdict != VerdictAdmitted {
		t.Fatalf("first admit: %v", d.Verdict)
	}
	d := p.Admit(c, 0)
	if d.Verdict != VerdictDuplicate {
		t.Fatalf("second admit: %v, want duplicate", d.Verdict)
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d after duplicate", p.Len())
	}
	if _, err := p.SelectBatch(txpool.PolicyFIFO, 10); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Once selected the ID leaves the dedup set: a resubmission is a new
	// transaction again (the node layer's receipt check owns longer-term
	// dedup).
	if d := p.Admit(c, 0); d.Verdict != VerdictAdmitted {
		t.Fatalf("re-admit after drain: %v", d.Verdict)
	}
	st := p.Stats()
	if st.Admitted != 2 || st.Duplicate != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRateLimitRefillsOnInjectedClock(t *testing.T) {
	now := time.Unix(1000, 0)
	p := New(Config{Shards: 1, RatePerSec: 1, Burst: 2, Now: func() time.Time { return now }})
	if d := p.Admit(testCall(1, 1), 0); d.Verdict != VerdictAdmitted {
		t.Fatalf("burst 1: %v", d.Verdict)
	}
	if d := p.Admit(testCall(1, 2), 0); d.Verdict != VerdictAdmitted {
		t.Fatalf("burst 2: %v", d.Verdict)
	}
	d := p.Admit(testCall(1, 3), 0)
	if d.Verdict != VerdictRateLimited {
		t.Fatalf("over burst: %v", d.Verdict)
	}
	if d.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s at rate 1/s", d.RetryAfter)
	}
	now = now.Add(time.Second)
	if d := p.Admit(testCall(1, 3), 0); d.Verdict != VerdictAdmitted {
		t.Fatalf("after refill: %v", d.Verdict)
	}
	// A different sender was never throttled.
	if d := p.Admit(testCall(2, 1), 0); d.Verdict != VerdictAdmitted {
		t.Fatalf("other sender: %v", d.Verdict)
	}
}

func TestSenderSlotsAndPriorityReplacement(t *testing.T) {
	p := New(Config{Shards: 1, PerSenderSlots: 2})
	c1, c2, c3 := testCall(1, 1), testCall(1, 2), testCall(1, 3)
	p.Admit(c1, 0)
	p.Admit(c2, 0)
	if d := p.Admit(c3, 0); d.Verdict != VerdictSenderLimit {
		t.Fatalf("at cap, equal priority: %v", d.Verdict)
	}
	d := p.Admit(c3, 1)
	if d.Verdict != VerdictReplaced {
		t.Fatalf("at cap, higher priority: %v", d.Verdict)
	}
	if len(d.Dropped) != 1 || !reflect.DeepEqual(d.Dropped[0].Call, c2) {
		t.Fatalf("replacement victim = %+v, want the sender's newest queued call", d.Dropped)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d, want 2 (replacement keeps occupancy)", p.Len())
	}
	// The replacement jumped the lane: selection yields it first.
	sel, err := p.SelectBatch(txpool.PolicyFIFO, 1)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if !reflect.DeepEqual(sel.Calls[0], c3) {
		t.Fatalf("selected %v, want the priority-1 replacement", sel.Calls[0])
	}
}

func TestShardSaturationSheds(t *testing.T) {
	p := New(Config{Shards: 1, MaxShardEntries: 2})
	p.Admit(testCall(1, 1), 0)
	p.Admit(testCall(2, 2), 0)
	if d := p.Admit(testCall(3, 3), 0); d.Verdict != VerdictShardSaturated {
		t.Fatalf("verdict = %v, want shard_saturated", d.Verdict)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestByteBudgetEvictionAndOverload(t *testing.T) {
	// Probe one call's encoded size so the budget below holds exactly
	// three.
	probe := New(Config{Shards: 1})
	probe.Admit(testCall(0, 0), 0)
	size := probe.Bytes()
	if size <= 0 {
		t.Fatalf("probe size = %d", size)
	}

	first := testCall(0, 100)
	p := New(Config{Shards: 1, MaxBytes: 3 * size})
	p.Admit(first, 0)
	p.Admit(testCall(1, 101), 0)
	p.Admit(testCall(2, 102), 0)
	if p.Len() != 3 || p.Bytes() != 3*size {
		t.Fatalf("len=%d bytes=%d, want 3 calls filling the budget exactly", p.Len(), p.Bytes())
	}

	// Same lane: shed with zero collateral damage.
	d := p.Admit(testCall(9, 999), 0)
	if d.Verdict != VerdictPoolOverloaded || len(d.Dropped) != 0 {
		t.Fatalf("same-lane overflow: %v dropped=%d", d.Verdict, len(d.Dropped))
	}
	if p.Len() != 3 {
		t.Fatalf("shed submission evicted something: len=%d", p.Len())
	}

	// Higher lane: evicts the oldest lowest-lane entry and lands.
	d = p.Admit(testCall(9, 999), 1)
	if d.Verdict != VerdictAdmitted || len(d.Dropped) != 1 {
		t.Fatalf("higher-lane overflow: %v dropped=%d", d.Verdict, len(d.Dropped))
	}
	if !reflect.DeepEqual(d.Dropped[0].Call, first) {
		t.Fatalf("evicted %+v, want the oldest queued call", d.Dropped[0].Call)
	}
	if p.Len() != 3 || p.Bytes() != 3*size {
		t.Fatalf("after eviction len=%d bytes=%d", p.Len(), p.Bytes())
	}
	if st := p.Stats(); st.Evicted != 1 || st.PoolOverloaded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPriorityLanesSelectionOrder checks the merge order priority lanes
// buy: higher lanes first, arrival order within a lane — across shards.
func TestPriorityLanesSelectionOrder(t *testing.T) {
	p := New(Config{Shards: 4})
	a, b, c, d := testCall(1, 1), testCall(2, 2), testCall(3, 3), testCall(4, 4)
	p.Admit(a, 0)
	p.Admit(b, 5)
	p.Admit(c, 5)
	p.Admit(d, 1)
	sel, err := p.SelectBatch(txpool.PolicyFIFO, 10)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	want := []contract.Call{b, c, d, a}
	if !reflect.DeepEqual(sel.Calls, want) {
		t.Fatalf("selection order\ngot:  %v\nwant: %v", sel.Calls, want)
	}
	// Priorities are intake QoS, not consensus state: PendingCalls (the
	// persistence image) stays in arrival order.
	p.RequeueBatch(sel)
	if got := p.PendingCalls(); !reflect.DeepEqual(got, []contract.Call{a, b, c, d}) {
		t.Fatalf("pending order %v, want arrival order", got)
	}
}
