package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"contractstm/internal/cluster"
	"contractstm/internal/engine"
	"contractstm/internal/workload"
)

// ClusterConfig tunes the end-to-end propagation sweep: a miner node
// seals blocks from a generated workload and broadcasts each over HTTP to
// N validating followers, which replay the published schedule before
// appending. Unlike the single-process sweeps this is wall-clock by
// nature — the wire, the block codec and the validator all sit on the
// measured path.
type ClusterConfig struct {
	// Kind selects the workload (default Token).
	Kind workload.Kind
	// BlockSize is transactions per block (default 64).
	BlockSize int
	// Blocks is how many blocks each point mines and propagates
	// (default 4).
	Blocks int
	// ConflictPercent is the workload's data-conflict percentage. Zero
	// means the default (15, the paper's block-size-sweep setting);
	// negative requests a conflict-free workload — the same convention as
	// Config.InterferencePerMille.
	ConflictPercent int
	// Workers is every node's pool size (default 3).
	Workers int
	// Seed makes workload generation deterministic (default
	// DefaultSeed).
	Seed int64
	// PeerCounts is the follower-count axis (default 1..4).
	PeerCounts []int
	// Engines lists the engines to measure (default all).
	Engines []engine.Kind
}

// WithDefaults returns c with every unset field at its default.
func (c ClusterConfig) WithDefaults() ClusterConfig {
	if c.Kind == 0 {
		c.Kind = workload.KindToken
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 64
	}
	if c.Blocks <= 0 {
		c.Blocks = 4
	}
	if c.ConflictPercent == 0 {
		c.ConflictPercent = SweepConflictFixed
	} else if c.ConflictPercent < 0 {
		c.ConflictPercent = 0
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if len(c.PeerCounts) == 0 {
		c.PeerCounts = []int{1, 2, 3, 4}
	}
	if len(c.Engines) == 0 {
		c.Engines = engine.Kinds()
	}
	return c
}

// ClusterPoint is one (engine, peer-count) propagation measurement.
type ClusterPoint struct {
	Engine engine.Kind
	Peers  int
	Blocks int
	Txs    int
	// Elapsed is wall-clock from first mine to every follower holding
	// the miner's head.
	Elapsed time.Duration
	// BlocksPerSec and TxsPerSec are end-to-end throughput: mined,
	// shipped and re-validated by every follower.
	BlocksPerSec float64
	TxsPerSec    float64
}

// MeasureCluster runs one propagation point: mine cfg.Blocks blocks on a
// miner with peers validating followers attached over HTTP, broadcasting
// each sealed block, and verify full convergence before stopping the
// clock.
func MeasureCluster(eng engine.Kind, peers int, cfg ClusterConfig) (ClusterPoint, error) {
	cfg = cfg.WithDefaults()
	totalTxs := cfg.Blocks * cfg.BlockSize
	worlds, calls, err := cluster.GenerateWorlds(workload.Params{
		Kind: cfg.Kind, Transactions: totalTxs,
		ConflictPercent: cfg.ConflictPercent, Seed: cfg.Seed,
	}, peers+1)
	if err != nil {
		return ClusterPoint{}, fmt.Errorf("bench: cluster workload: %w", err)
	}
	cl, err := cluster.New(cluster.Config{Worlds: worlds, Engine: eng, Workers: cfg.Workers})
	if err != nil {
		return ClusterPoint{}, fmt.Errorf("bench: cluster: %w", err)
	}
	defer cl.Close()

	miner := cl.Node(0)
	miner.SubmitAll(calls)
	bcast := cl.Broadcaster(0)
	ctx := context.Background()

	start := time.Now()
	for b := 0; b < cfg.Blocks; b++ {
		blk, err := miner.MineOne(cfg.BlockSize)
		if err != nil {
			return ClusterPoint{}, fmt.Errorf("bench: cluster mine block %d (%v): %w", b+1, eng, err)
		}
		if failed := cluster.Failed(bcast.Broadcast(ctx, blk)); len(failed) > 0 {
			return ClusterPoint{}, fmt.Errorf("bench: cluster broadcast block %d (%v): %v", b+1, eng, failed[0].Err)
		}
	}
	elapsed := time.Since(start)
	if !cl.Converged() {
		return ClusterPoint{}, fmt.Errorf("bench: cluster (%v, %d peers) did not converge", eng, peers)
	}
	if got := miner.Head().Header.Number; got != uint64(cfg.Blocks) {
		return ClusterPoint{}, fmt.Errorf("bench: cluster height %d, want %d", got, cfg.Blocks)
	}

	pt := ClusterPoint{Engine: eng, Peers: peers, Blocks: cfg.Blocks, Txs: totalTxs, Elapsed: elapsed}
	if s := elapsed.Seconds(); s > 0 {
		pt.BlocksPerSec = float64(cfg.Blocks) / s
		pt.TxsPerSec = float64(totalTxs) / s
	}
	return pt, nil
}

// SweepCluster measures every (engine, peer-count) combination.
func SweepCluster(cfg ClusterConfig) ([]ClusterPoint, error) {
	cfg = cfg.WithDefaults()
	var out []ClusterPoint
	for _, eng := range cfg.Engines {
		for _, peers := range cfg.PeerCounts {
			pt, err := MeasureCluster(eng, peers, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// WriteClusterCSV emits every propagation data point as CSV.
func WriteClusterCSV(w io.Writer, points []ClusterPoint) {
	fmt.Fprintln(w, "engine,peers,blocks,txs,elapsed_ns,blocks_per_sec,txs_per_sec")
	for _, p := range points {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.2f,%.2f\n",
			p.Engine, p.Peers, p.Blocks, p.Txs, p.Elapsed.Nanoseconds(), p.BlocksPerSec, p.TxsPerSec)
	}
}

// WriteClusterSweep renders the propagation sweep as an aligned table.
func WriteClusterSweep(w io.Writer, cfg ClusterConfig, points []ClusterPoint) {
	cfg = cfg.WithDefaults()
	fmt.Fprintf(w, "Cluster sweep [%s]: %d blocks × %d txs, %d%% conflict, end-to-end over HTTP\n",
		cfg.Kind, cfg.Blocks, cfg.BlockSize, cfg.ConflictPercent)
	fmt.Fprintf(w, "  %-13s %-7s %-12s %-12s %-12s\n", "engine", "peers", "elapsed", "blocks/s", "txs/s")
	for _, p := range points {
		fmt.Fprintf(w, "  %-13s %-7d %-12s %-12.1f %-12.1f\n",
			p.Engine, p.Peers, p.Elapsed.Round(time.Millisecond), p.BlocksPerSec, p.TxsPerSec)
	}
	fmt.Fprintln(w)
}
