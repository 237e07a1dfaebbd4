package node

import (
	"testing"

	"contractstm/internal/crypto"
	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// TestStateRootBytesUnchanged pins the state commitment's definition. On
// a fixed workload, the genesis root and every sealed block's root must
// equal crypto.StateRootOf over the full canonical entry list, and the
// sequence of roots must hash to the digest the full-recompute
// implementation produced. The incremental commitment is an optimisation
// of that definition, never a change to it: data directories written
// before it recover unchanged.
func TestStateRootBytesUnchanged(t *testing.T) {
	cases := []struct {
		params  workload.Params
		genesis string
		digest  string
	}{
		{
			workload.Params{Kind: workload.KindMixed, Transactions: 300, ConflictPercent: 15, Seed: 7},
			"0x36c99ce028e5602a8bd47624f70471e1067bb6bdca289e59f9fb33e30c35ed2f",
			"0x4e43bb8ec49a2fc9885ca62e6006d27a847b7ee0bed136c60d51cbcc3af04fa6",
		},
		{
			workload.Params{Kind: workload.KindToken, Transactions: 240, ConflictPercent: 20, Seed: 7},
			"0x5b64679915572b99c4dfb5bfa56ac401a082eed9b66277994531a844eade6dbf",
			"0x6eea54277fae3015ac2d1a0b0f23fa3acab9d2b64195d6b73c8838d752b8955b",
		},
	}
	for _, tc := range cases {
		t.Run(tc.params.Kind.String(), func(t *testing.T) {
			wl, err := workload.Generate(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			definition := func(what string) types.Hash {
				t.Helper()
				entries, err := wl.World.Store().StateEntries()
				if err != nil {
					t.Fatalf("%s: state entries: %v", what, err)
				}
				return crypto.StateRootOf(entries)
			}
			genesis, err := wl.World.StateRoot()
			if err != nil {
				t.Fatal(err)
			}
			if want := definition("genesis"); genesis != want {
				t.Fatalf("genesis root %s, definition %s", genesis.Short(), want.Short())
			}
			if genesis.String() != tc.genesis {
				t.Fatalf("genesis root %s, pinned %s", genesis, tc.genesis)
			}
			n, err := New(Config{World: wl.World, Workers: 3, Engine: engine.KindSerial, Runner: runtime.NewSimRunner()})
			if err != nil {
				t.Fatal(err)
			}
			n.SubmitAll(wl.Calls)
			roots := [][]byte{genesis[:]}
			for n.PoolLen() > 0 {
				b, err := n.MineOne(40)
				if err != nil {
					t.Fatalf("mine: %v", err)
				}
				root := b.Header.StateRoot
				if want := definition("block"); root != want {
					t.Fatalf("block %d root %s, definition %s", b.Header.Number, root.Short(), want.Short())
				}
				roots = append(roots, root[:])
			}
			if got := types.HashConcat(roots...); got.String() != tc.digest {
				t.Fatalf("digest of %d roots %s, pinned %s", len(roots), got, tc.digest)
			}
		})
	}
}
