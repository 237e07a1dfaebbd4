package txpool_test

// Engine-parameterized selection: pool policies must compose with every
// execution engine — blocks assembled under either policy mine and
// validate under serial, speculative and OCC execution, and the conflict
// feedback loop (RetriedTxs → ReportConflicts) stays meaningful for the
// engines that produce it.

import (
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

func TestSelectionPoliciesUnderAllEngines(t *testing.T) {
	for _, ek := range engine.Kinds() {
		for _, policy := range []txpool.Policy{txpool.PolicyFIFO, txpool.PolicySpread} {
			ek, policy := ek, policy
			t.Run(ek.String()+"/"+policy.String(), func(t *testing.T) {
				wl, err := workload.Generate(workload.Params{
					Kind: workload.KindAuction, Transactions: 120, ConflictPercent: 50, Seed: 9,
				})
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				pool := newPool()
				pool.SubmitAllTrusted(wl.Calls)
				eng := engine.MustNew(ek)
				parent := chain.GenesisHeader(types.HashString("txpool-engines"))

				mined := 0
				for b := 0; b < 2; b++ {
					calls, err := pool.Select(policy, 40)
					if err != nil {
						t.Fatalf("select: %v", err)
					}
					pre := wl.World.Snapshot()
					res, err := miner.Mine(eng, runtime.NewSimRunner(), wl.World, parent, calls,
						engine.Options{Workers: 3})
					if err != nil {
						t.Fatalf("mine: %v", err)
					}
					var conflicted []contract.Call
					for _, id := range res.Stats.RetriedTxs {
						conflicted = append(conflicted, calls[id])
					}
					pool.ReportConflicts(conflicted)
					mined += len(calls)

					// The assembled block must validate from the pre-block
					// state regardless of engine or policy; validation
					// re-advances the world to the post-block state.
					wl.World.Restore(pre)
					if _, err := validator.Validate(runtime.NewSimRunner(), wl.World, res.Block,
						validator.Config{Workers: 3}); err != nil {
						t.Fatalf("block %d rejected: %v", b, err)
					}
					parent = res.Block.Header
				}
				if mined != 80 {
					t.Fatalf("mined %d transactions, want 80", mined)
				}
			})
		}
	}
}
