package storage_test

import (
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// BenchmarkStateRoot times the state commitment on the paper's Mixed
// workload: a 20,000-transaction genesis, then one 200-transaction block.
//
//   - cold: the first root of a state with no commitment cache (genesis,
//     restore from encoded state, snapshot install), every key hashed;
//   - warm: the root after one block, from the cache the previous root
//     left and the dirty keys the block touched, with the cache frozen by
//     the pre-block snapshot exactly as node.MineOne leaves it.
//
// Run with: go test -run '^$' -bench StateRoot -benchmem ./internal/storage/
func BenchmarkStateRoot(b *testing.B) {
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindMixed, Transactions: 20_000, ConflictPercent: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := wl.World
	genesis := w.Snapshot() // taken before any root: restores cold

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w.Restore(genesis)
			b.StartTimer()
			if _, err := w.StateRoot(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		w.Restore(genesis)
		if _, err := w.StateRoot(); err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(engine.KindSerial)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.ExecuteBlock(runtime.NewSimRunner(), w, wl.Calls[:200], engine.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
		// Post-block contents, the pre-block cache (frozen by this very
		// snapshot) and the block's dirty keys.
		block := w.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w.Restore(block)
			b.StartTimer()
			if _, err := w.StateRoot(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
