package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"contractstm/internal/crypto"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// The incremental state commitment must always equal the definition:
// crypto.StateRootOf over the canonical entry list, which is also what a
// cold store restored from encoded state computes. The equivalence test
// and fuzz target below drive random operation sequences through every
// executor regime (eager undo, lazy overlay, OCC overlay), with aborts,
// interleaved with Snapshot, StateRoot, Restore and an encode/decode
// round trip, and compare the three roots.

// equivStore is the object set every equivalence case runs on. The
// registration order differs from the name order on purpose: the state
// tree is in name order, snapshots are in registration order.
type equivStore struct {
	s   *Store
	bal *Map   // "eq/m": uint64 counters, occasionally a string
	doc *Map   // "eq/a": hashes
	arr *Array // "eq/arr"
	cnt *Cell  // "eq/c": a counter
	tag *Cell  // "eq/b": a string
}

func newEquivStore(t testing.TB) *equivStore {
	t.Helper()
	s := NewStore()
	e := &equivStore{s: s}
	var err error
	if e.bal, err = NewMap(s, "eq/m"); err != nil {
		t.Fatal(err)
	}
	if e.arr, err = NewArray(s, "eq/arr"); err != nil {
		t.Fatal(err)
	}
	if e.cnt, err = NewCell(s, "eq/c", uint64(0)); err != nil {
		t.Fatal(err)
	}
	if e.doc, err = NewMap(s, "eq/a"); err != nil {
		t.Fatal(err)
	}
	if e.tag, err = NewCell(s, "eq/b", "genesis"); err != nil {
		t.Fatal(err)
	}
	return e
}

// opStream feeds decisions from fuzz bytes; an exhausted stream reads 0.
type opStream struct {
	data []byte
	pos  int
}

func (r *opStream) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *opStream) done() bool { return r.pos >= len(r.data) }

// executor regimes a transaction can run under.
const (
	regimeEager = iota
	regimeLazy
	regimeOCC
	numRegimes
)

// runTx executes one transaction of ops sub-operations on thread th and
// commits it, or aborts it when abort is set. OCC writes are applied
// after commit, as the OCC engine's commit round does.
func (e *equivStore) runTx(mgr *stm.Manager, th runtime.Thread, regime int, abort bool, ops []byte) {
	meter := gas.NewMeter(10_000_000)
	id := types.TxID(th.ID())
	var tx *stm.Tx
	switch regime {
	case regimeEager:
		tx = stm.BeginSpeculative(mgr, id, th, meter, stm.PolicyEager)
	case regimeLazy:
		tx = stm.BeginSpeculative(mgr, id, th, meter, stm.PolicyLazy)
	default:
		tx = stm.BeginOCC(id, th, meter, gas.DefaultSchedule())
	}
	for i := 0; i+2 < len(ops); i += 3 {
		if err := e.op(tx, ops[i], ops[i+1], ops[i+2]); errors.Is(err, stm.ErrDeadlock) {
			abort = true
			break
		}
	}
	if abort {
		_ = tx.Abort()
		if wr := tx.PendingWrites(); wr != nil {
			wr.Release()
		}
		return
	}
	_ = tx.Commit()
	if wr := tx.PendingWrites(); wr != nil {
		wr.Apply()
		wr.Release()
	}
}

// op applies one storage operation chosen by kind on a small key space,
// so operations collide. Errors a contract would see as throws (out of
// range, not a counter, underflow) leave state untouched and are ignored.
func (e *equivStore) op(tx *stm.Tx, kind, k, v byte) error {
	key := fmt.Sprintf("k%d", k%12)
	n := uint64(v % 5) // small, so counters reach zero often
	var err error
	switch kind % 13 {
	case 0:
		err = e.bal.Put(tx, key, n)
	case 1:
		err = e.bal.Delete(tx, key)
	case 2:
		err = e.bal.AddUint(tx, key, n)
	case 3:
		err = e.bal.SubUint(tx, key, n)
	case 4: // AddUint then SubUint back down to the canonical zero
		var cur uint64
		if cur, err = e.bal.GetUint(tx, key); err == nil {
			err = e.bal.SubUint(tx, key, cur)
		}
	case 5:
		err = e.bal.Put(tx, key, fmt.Sprintf("s%d", v))
	case 6:
		err = e.doc.Put(tx, key, types.HashBytes([]byte{v}))
	case 7:
		err = e.doc.Delete(tx, key)
	case 8:
		_, err = e.arr.Push(tx, n)
	case 9:
		err = e.arr.Set(tx, int(k%6), n)
	case 10:
		err = e.arr.AddUint(tx, int(k%6), n)
	case 11:
		err = e.cnt.AddUint(tx, n)
	case 12:
		if v%2 == 0 {
			err = e.cnt.Write(tx, n)
		} else {
			err = e.tag.Write(tx, fmt.Sprintf("t%d", v))
		}
	}
	return err
}

// rawContents is Snapshot without its side effect: it copies the raw
// contents only, leaving every commitment cache unfrozen, so checking a
// step does not steer the code path the next step takes.
func rawContents(s *Store) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{contents: make([]any, len(s.objects))}
	for i, o := range s.objects {
		switch x := o.(type) {
		case *Map:
			x.raw.mu.Lock()
			cp := make(map[string]any, len(x.raw.m))
			for k, v := range x.raw.m {
				cp[k] = v
			}
			x.raw.mu.Unlock()
			snap.contents[i] = cp
		case *Array:
			x.mu.Lock()
			snap.contents[i] = append([]any(nil), x.raw...)
			x.mu.Unlock()
		case *Cell:
			snap.contents[i] = x.rawRead()
		}
	}
	return snap
}

// definitionRoot is the state root by its definition.
func definitionRoot(t testing.TB, s *Store) types.Hash {
	t.Helper()
	entries, err := s.StateEntries()
	if err != nil {
		t.Fatalf("state entries: %v", err)
	}
	return crypto.StateRootOf(entries)
}

// coldRoot is the root a fresh store computes after restoring s's
// current contents from their encoding — the recovery path.
func coldRoot(t testing.TB, s *Store) types.Hash {
	t.Helper()
	enc, err := s.EncodeSnapshot(rawContents(s))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	fresh := newEquivStore(t)
	snap, err := fresh.s.DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	fresh.s.Restore(snap)
	root, err := fresh.s.StateRoot()
	if err != nil {
		t.Fatalf("cold root: %v", err)
	}
	return root
}

// runEquivalence interprets data as an operation sequence and checks the
// roots after every step. With warmEveryStep the warm root is taken after
// every step too; without it only at the sequence's own StateRoot steps
// and at the end, so dirty sets accumulate across transactions, snapshots
// and restores the way they do between two blocks.
func runEquivalence(t testing.TB, data []byte, warmEveryStep bool) {
	e := newEquivStore(t)
	mgr := stm.NewManager(gas.DefaultSchedule())
	one := runtime.NewOSRunner(nil)
	r := &opStream{data: data}
	var snaps []Snapshot
	var trail []string

	check := func(step string, warm bool) {
		trail = append(trail, step)
		want := definitionRoot(t, e.s)
		if got := coldRoot(t, e.s); got != want {
			t.Fatalf("after %v: cold root %s, definition %s", trail, got.Short(), want.Short())
		}
		if !warm && !warmEveryStep {
			return
		}
		got, err := e.s.StateRoot()
		if err != nil {
			t.Fatalf("after %v: warm root: %v", trail, err)
		}
		if got != want {
			t.Fatalf("after %v: warm root %s, definition %s", trail, got.Short(), want.Short())
		}
	}

	for steps := 0; !r.done() && steps < 64; steps++ {
		switch op := r.next() % 9; op {
		case 0, 1, 2: // one transaction on one real thread
			regime := int(r.next() % numRegimes)
			abort := r.next()%4 == 0
			ops := make([]byte, 3*(1+int(r.next()%4)))
			for i := range ops {
				ops[i] = r.next()
			}
			if _, err := one.Run(1, func(th runtime.Thread) { e.runTx(mgr, th, regime, abort, ops) }); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("tx(regime=%d,abort=%v,%x)", regime, abort, ops), false)
		case 3: // two lock-based transactions racing on real threads
			var ops [2][]byte
			var policy [2]int
			for w := range ops {
				policy[w] = int(r.next() % 2) // eager or lazy
				ops[w] = make([]byte, 6)
				for i := range ops[w] {
					ops[w][i] = r.next()
				}
			}
			if _, err := runtime.NewOSRunner(nil).Run(2, func(th runtime.Thread) {
				e.runTx(mgr, th, policy[th.ID()], false, ops[th.ID()])
			}); err != nil {
				t.Fatal(err)
			}
			check("racing txs", false)
		case 4:
			snaps = append(snaps, e.s.Snapshot())
			if len(snaps) > 4 {
				snaps = snaps[1:]
			}
			check("snapshot", false)
		case 5:
			check("root", true)
		case 6:
			if len(snaps) > 0 {
				i := int(r.next()) % len(snaps)
				e.s.Restore(snaps[i])
				check(fmt.Sprintf("restore(%d)", i), false)
			}
		case 7: // EncodeState → RestoreState: the store goes cold
			enc, err := e.s.EncodeSnapshot(e.s.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			snap, err := e.s.DecodeSnapshot(enc)
			if err != nil {
				t.Fatal(err)
			}
			e.s.Restore(snap)
			check("encode/restore", false)
		case 8: // the persist-failure shape: snapshot, mutate, root, roll back
			pre := e.s.Snapshot()
			ops := []byte{r.next(), r.next(), r.next()}
			if _, err := one.Run(1, func(th runtime.Thread) { e.runTx(mgr, th, regimeEager, false, ops) }); err != nil {
				t.Fatal(err)
			}
			if _, err := e.s.StateRoot(); err != nil {
				t.Fatal(err)
			}
			e.s.Restore(pre)
			check(fmt.Sprintf("root-then-rollback(%x)", ops), false)
		}
	}
	check("end", true)
}

// TestStateRootEquivalence runs random operation sequences through the
// equivalence check, taking the warm root both after every step and only
// at the sequence's own root steps.
func TestStateRootEquivalence(t *testing.T) {
	cases := 120
	if testing.Short() {
		cases = 40
	}
	rng := rand.New(rand.NewSource(12))
	for c := 0; c < cases; c++ {
		data := make([]byte, 64+rng.Intn(256))
		rng.Read(data)
		for _, every := range []bool{true, false} {
			runEquivalence(t, data, every)
		}
	}
}

// FuzzStateRootEquivalence is the fuzz form of TestStateRootEquivalence.
//
//	go test -run '^$' -fuzz FuzzStateRootEquivalence -fuzztime 10s ./internal/storage/
func FuzzStateRootEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 1, 2, 5, 4, 0, 1, 1, 0, 2, 1, 3, 4, 5, 6, 0})
	f.Add([]byte{4, 1, 2, 0, 2, 2, 8, 0, 9, 9, 8, 1, 2, 3, 5, 7, 6, 0, 5})
	f.Add([]byte{2, 1, 0, 3, 11, 0, 4, 12, 0, 2, 8, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, every := range []bool{true, false} {
			runEquivalence(t, data, every)
		}
	})
}
