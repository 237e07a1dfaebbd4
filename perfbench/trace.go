package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/mempool"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/txpool"
	"contractstm/internal/validator"
)

// span is one timed call into a layer. Spans of one block share its
// height as their trace id; Parent is the enclosing span's ID (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced code paths call it freely.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, trace uint64, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// setTrace assigns a span to a block once the block is known.
func (r *recorder) setTrace(id int, trace uint64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Trace = trace
}

// durations returns the durations of all spans with the given name.
func (r *recorder) durations(name string) samples {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out samples
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfFrac is the share of the named spans' total duration that none of
// their child spans covers (children of one span never overlap here).
func (r *recorder) selfFrac(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := map[int]int64{}
	child := map[int]int64{}
	for _, s := range r.spans {
		if s.Name == name {
			total[s.ID] = s.End - s.Start
		}
	}
	for _, s := range r.spans {
		if _, ok := total[s.Parent]; ok {
			child[s.Parent] += s.End - s.Start
		}
	}
	var t, c int64
	for id, d := range total {
		t += d
		c += child[id]
	}
	return ratio(float64(t-c), float64(t))
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// layerStats is what the replay counts at the layer boundaries.
type layerStats struct {
	blocks, txs             int
	execAttempts, execFails int
	retries                 int
	waits, deadlocks        uint64
	edges, criticalPath     uint64
	specExec, serialExec    time.Duration
	validate1, validate3    time.Duration
	walBytes                int64
	fsyncs                  int64
	fsyncTime               time.Duration
	blockBytes              int
}

// replay re-runs the traced pass's blocks from the genesis pre-state
// through the layer entry points in the node's order, each call inside a
// span. Mining: Pool.SelectBatch → World.Snapshot → Engine.ExecuteBlock →
// World.StateRoot → chain.Seal → chain.AppendBlockWire → Log.Append.
// Following (on the block the node sealed): chain.DecodeBlock →
// validator.Precheck → validator.ValidatePrechecked. Outside those spans
// it times the serial engine and a one-worker validation on the same
// block and pre-state, as references.
func (b *bench) replay(in *replayInput) (layerStats, error) {
	var st layerStats
	rec := b.rec
	blocks := in.blocks
	if len(blocks) > replayBlocks {
		blocks = blocks[:replayBlocks]
	}
	w, err := b.spec.generate(b.inputSeed(0))
	if err != nil {
		return st, err
	}
	world := w.World
	genesisRoot, err := world.StateRoot()
	if err != nil {
		return st, err
	}
	parent := chain.GenesisHeader(genesisRoot)
	if len(blocks) > 0 && parent.Hash() != blocks[0].Header.ParentHash {
		return st, fmt.Errorf("check: replay genesis differs from the node's")
	}
	pool := mempool.New(mempool.Config{Now: time.Now})
	pool.SubmitAllTrusted(in.prefill)
	dir, err := b.newDir("replay")
	if err != nil {
		return st, err
	}
	log, err := persist.Open(dir, persist.Options{SyncEvery: 1})
	if err != nil {
		return st, err
	}
	defer func() {
		_ = log.Close() // the replay's WAL is scratch; its Append errors are checked
		_ = os.RemoveAll(dir)
	}()
	spec, serial := engine.MustNew(engine.KindSpeculative), engine.MustNew(engine.KindSerial)
	runner := runtime.NewOSRunner(nil)
	var buf []byte

	for _, nb := range blocks {
		h := nb.Header.Number
		if in.prefill == nil {
			pool.SubmitAllTrusted(nb.Calls) // open loop: the pool held this block's arrivals
		}
		root := rec.begin("replay.mine", h, 0)
		id := rec.begin("mempool.SelectBatch", h, root)
		sel, err := pool.SelectBatch(txpool.PolicyFIFO, blockSize)
		rec.end(id)
		if err != nil {
			return st, fmt.Errorf("replay select %d: %w", h, err)
		}
		if chain.TxRootOf(sel.Calls) != nb.Header.TxRoot {
			return st, fmt.Errorf("check: replay selected another batch than block %d", h)
		}
		id = rec.begin("storage.Snapshot", h, root)
		pre := world.Snapshot()
		rec.end(id)

		var res engine.Result
		for attempt := 0; ; attempt++ {
			if attempt == b.maxAttempts || time.Now().After(b.deadline) {
				return st, fmt.Errorf("replay: block %d not executed after %d attempts", h, attempt)
			}
			id = rec.begin("engine.ExecuteBlock", h, root)
			res, err = spec.ExecuteBlock(runner, world, sel.Calls, engine.Options{Workers: 3})
			took := rec.end(id)
			st.execAttempts++
			if err == nil {
				st.specExec += took
				break
			}
			st.execFails++
			world.Restore(pre)
		}
		id = rec.begin("storage.StateRoot", h, root)
		stateRoot, err := world.StateRoot()
		rec.end(id)
		if err != nil {
			return st, err
		}
		id = rec.begin("chain.Seal", h, root)
		blk := chain.Seal(parent, sel.Calls, res.Receipts, res.Schedule, res.Profiles, stateRoot)
		rec.end(id)
		id = rec.begin("chain.AppendBlockWire", h, root)
		buf, err = chain.AppendBlockWire(buf[:0], blk)
		rec.end(id)
		if err != nil {
			return st, err
		}
		id = rec.begin("persist.Log.Append", h, root)
		err = log.Append(blk)
		rec.end(id)
		rec.end(root)
		if err != nil {
			return st, fmt.Errorf("replay WAL append %d: %w", h, err)
		}
		// The replay may serialize conflicting transactions in another
		// order than the node did, and so reach another state; its block
		// must still be one a validator accepts from the same pre-state.
		world.Restore(pre)
		if _, err := validator.Validate(runner, world, blk, validator.Config{Workers: 3}); err != nil {
			return st, fmt.Errorf("check: replay-mined block %d: %w", h, err)
		}
		st.blocks++
		st.txs += len(sel.Calls)
		st.blockBytes += len(buf)
		st.retries += res.Stats.Retries
		st.waits += res.Stats.LockStats.Waits
		st.deadlocks += res.Stats.LockStats.Deadlocks
		if res.Graph != nil {
			m, err := sched.Metrics(res.Graph)
			if err != nil {
				return st, err
			}
			st.edges += uint64(m.Edges)
			st.criticalPath += m.CriticalPathLen
		}

		world.Restore(pre)
		start := time.Now()
		if _, err := serial.ExecuteBlock(runner, world, sel.Calls, engine.Options{Workers: 1}); err != nil {
			return st, fmt.Errorf("replay serial %d: %w", h, err)
		}
		st.serialExec += time.Since(start)

		// Follow the block the node sealed, from the same pre-state.
		wireBytes, err := chain.AppendBlockWire(nil, nb)
		if err != nil {
			return st, err
		}
		world.Restore(pre)
		pc, err := validator.Precheck(nb)
		if err != nil {
			return st, fmt.Errorf("check: block %d: %w", h, err)
		}
		start = time.Now()
		if _, err := validator.ValidatePrechecked(runner, world, nb, pc, validator.Config{Workers: 1}); err != nil {
			return st, fmt.Errorf("check: block %d: %w", h, err)
		}
		st.validate1 += time.Since(start)
		world.Restore(pre)

		root = rec.begin("replay.follow", h, 0)
		id = rec.begin("chain.DecodeBlock", h, root)
		db, err := chain.DecodeBlock(bytes.NewReader(wireBytes))
		rec.end(id)
		if err != nil {
			return st, fmt.Errorf("check: decode block %d: %w", h, err)
		}
		id = rec.begin("validator.Precheck", h, root)
		pc, err = validator.Precheck(db)
		rec.end(id)
		if err != nil {
			return st, fmt.Errorf("check: block %d: %w", h, err)
		}
		id = rec.begin("validator.ValidatePrechecked", h, root)
		_, err = validator.ValidatePrechecked(runner, world, db, pc, validator.Config{Workers: 3})
		st.validate3 += rec.end(id)
		rec.end(root)
		if err != nil {
			// The validator compares the replayed state root with the
			// sealed header: a mismatch lands here.
			return st, fmt.Errorf("check: replayed block %d: %w", h, err)
		}
		parent = nb.Header
	}
	if len(blocks) > 0 {
		final, err := world.StateRoot()
		if err != nil {
			return st, err
		}
		if want := blocks[len(blocks)-1].Header.StateRoot; final != want {
			return st, fmt.Errorf("check: replay ends at state %s, node sealed %s", final.Short(), want.Short())
		}
	}
	m := log.MetricsSnapshot()
	st.walBytes, st.fsyncs, st.fsyncTime = m.BytesWritten, m.Fsyncs, m.FsyncTime
	return st, nil
}
