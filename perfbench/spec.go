package main

import (
	"strings"

	"contractstm/internal/workload"
)

// spec is one named workload. Genesis state is generated from genTxs
// transactions, and a run sends only a prefix of them, so the size of the
// state never depends on how long a run lasts.
type spec struct {
	name     string
	kind     workload.Kind
	conflict int // percent of contending transactions
	genTxs   int // transactions the genesis state is generated from
	// prefix is how many generated transactions one backlog round
	// prefills and drains (backlog workloads only).
	prefix int
	// rate is the open loop's offered load in tx/s; 0 selects the
	// closed-loop backlog drain.
	rate float64
}

// blockSize caps every mined block.
const blockSize = 200

// replayBlocks caps how many blocks the traced run replays through the
// layer entry points.
const replayBlocks = 40

func (s spec) openLoop() bool { return s.rate > 0 }

// workloads are the benchmark's named workloads, in the order
// BENCHMARK.json lists them.
var workloads = []spec{
	{
		name: "mixed-lowconf", kind: workload.KindMixed, conflict: 15,
		genTxs: 20_000, prefix: 8_000,
	},
	{
		name: "auction-hot", kind: workload.KindAuction, conflict: 50,
		genTxs: 20_000, prefix: 8_000,
	},
	{
		name: "token-open", kind: workload.KindToken, conflict: 15,
		genTxs: 50_000, rate: 800,
	},
}

func lookup(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// generate builds the workload's genesis world and its transactions from
// the seed. Every call with the same seed returns identical inputs.
func (s spec) generate(seed int64) (*workload.Workload, error) {
	return workload.Generate(workload.Params{
		Kind: s.kind, Transactions: s.genTxs, ConflictPercent: s.conflict, Seed: seed,
	})
}
