// Package contractstm is a from-scratch Go reproduction of "Adding
// Concurrency to Smart Contracts" (Dickerson, Gazzillo, Herlihy, Koskinen —
// PODC 2017): speculative parallel smart-contract mining via transactional
// boosting, and deterministic parallel validation via published fork-join
// schedules.
//
// The implementation lives under internal/; see DESIGN.md for the system
// inventory, perfbench/README.md for the wall-clock benchmark (a block's
// life on real threads, end to end and per layer), and examples/ for
// runnable entry points. The root package carries the
// repository-level benchmarks (bench_test.go), one per table and figure of
// the paper.
//
// Layers, bottom up: types/crypto/gas (primitives and the cost model),
// codec (the flat binary wire format: stream headers, append/read
// primitives, pooled encode buffers), des/runtime (deterministic simulated
// time), stm/storage (abstract locks
// and boosted objects), contract/contracts (execution environment and the
// paper's benchmark contracts), sched/forkjoin (published schedules and
// their deterministic replay), engine (pluggable block execution: serial,
// speculative, OCC), miner/validator (seal and check blocks), chain (hash-
// linked blocks and their flat wire encoding), txpool (the block
// selection policies the mempool runs, including engine-feedback
// lock-hints), persist (block WAL,
// group-commit writer, state snapshots, crash recovery), pipeline (the
// staged block-production window: sealed vs durable, back-pressure,
// abort), node (the assembled node), api (the versioned /v1 client API:
// typed wire schema, durable transaction receipts, SSE event streams,
// server middleware, with api/wire the schema and api/client the Go
// SDK — see docs/API.md), importer (the staged catch-up import
// pipeline: windowed range prefetch, parallel stateless validation,
// strictly height-ordered commit with deterministic error election),
// cluster (multi-node propagation over the SDK,
// durable-ordered publish, catch-up sync — serial or staged through
// importer — and snapshot fast-sync), replica (read replicas: the SSE
// relay that re-fans one upstream subscription out to local
// subscribers, bounded-staleness read gating, and the historical state
// materializer behind GET /v1/state?height=H),
// workload/stats/bench (the evaluation harness), analysis (the chainvet
// static-analysis suite that machine-checks the determinism, locking,
// pooling and codec invariants above; cmd/chainvet runs it standalone
// or as a go vet tool — see docs/LINTS.md).
package contractstm
