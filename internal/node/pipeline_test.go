package node

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// pipeNode builds a durable pipelined node over the deterministic
// recovery world, with a recording publish hook.
func pipeNode(t *testing.T, ek engine.Kind, dataDir string, depth int, opts persist.Options, pub func(chain.Block)) (*Node, []contract.Call) {
	t.Helper()
	world, calls := recWorld(t)
	n, err := New(Config{
		World: world, Workers: 3, Engine: ek,
		Runner:  runtime.NewSimRunner(),
		DataDir: dataDir, Persist: opts,
		PipelineDepth: depth, Publish: pub,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return n, calls
}

// refChain mines the uninterrupted reference run synchronously and
// returns per-height head hashes and state roots.
func refChain(t *testing.T, ek engine.Kind) ([]types.Hash, []types.Hash) {
	t.Helper()
	ref, calls := recNode(t, ek, "", persist.Options{})
	ref.SubmitAll(calls)
	heads := make([]types.Hash, recBlocks+1)
	roots := make([]types.Hash, recBlocks+1)
	heads[0], roots[0] = headAndRoot(ref)
	for b := 1; b <= recBlocks; b++ {
		if _, err := ref.MineOne(recBlockSize); err != nil {
			t.Fatalf("reference mine %d: %v", b, err)
		}
		heads[b], roots[b] = headAndRoot(ref)
	}
	return heads, roots
}

// TestPipelineDepthParity: for every engine, mining through the pipeline
// at depth 2 and 4 produces bit-identical blocks to the synchronous
// depth-1 run — the pipeline overlaps stages, it must not reorder or
// alter them — and publishes every block exactly once, in height order.
func TestPipelineDepthParity(t *testing.T) {
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			t.Parallel()
			refHeads, refRoots := refChain(t, ek)
			for _, depth := range []int{2, 4} {
				var mu sync.Mutex
				var published []uint64
				pub := func(b chain.Block) {
					mu.Lock()
					published = append(published, b.Header.Number)
					mu.Unlock()
				}
				n, calls := pipeNode(t, ek, t.TempDir(), depth, persist.Options{SnapshotEvery: 2}, pub)
				n.SubmitAll(calls)
				mined, err := n.MinePipelined(recBlocks, recBlockSize)
				if err != nil {
					t.Fatalf("depth %d: %v", depth, err)
				}
				if mined != recBlocks {
					t.Fatalf("depth %d: mined %d blocks, want %d", depth, mined, recBlocks)
				}
				if h, r := headAndRoot(n); h != refHeads[recBlocks] || r != refRoots[recBlocks] {
					t.Fatalf("depth %d: chain diverged from synchronous reference", depth)
				}
				st := n.CurrentStatus()
				if st.DurableHeight != uint64(recBlocks) {
					t.Fatalf("depth %d: durable height %d after flush, want %d", depth, st.DurableHeight, recBlocks)
				}
				if st.PipelineDepth != depth || st.InFlight != 0 {
					t.Fatalf("depth %d: status pipeline %d in-flight %d", depth, st.PipelineDepth, st.InFlight)
				}
				mu.Lock()
				if len(published) != recBlocks {
					t.Fatalf("depth %d: published %d blocks, want %d", depth, len(published), recBlocks)
				}
				for i, h := range published {
					if h != uint64(i+1) {
						t.Fatalf("depth %d: publish order %v", depth, published)
					}
				}
				mu.Unlock()
				if err := n.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
		})
	}
}

// TestPipelineCrashRecoveryEveryStage is the pipelined extension of the
// crash-recovery property test: for every engine, at every block height,
// kill the node at each pipeline stage —
//
//	sealed-not-durable:   the block executed and advanced the sealed
//	                      chain, but its WAL record never got its fsync;
//	durable-not-published: the WAL record is durable but no peer was told.
//
// Recovery must come back to a prefix of the sealed chain — exactly the
// durable prefix — and mining on from there must reproduce the reference
// run block for block.
func TestPipelineCrashRecoveryEveryStage(t *testing.T) {
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			t.Parallel()
			refHeads, refRoots := refChain(t, ek)
			opts := persist.Options{SnapshotEvery: 2}
			for kill := 1; kill <= recBlocks; kill++ {
				for _, stage := range []string{"sealed-not-durable", "durable-not-published"} {
					dir := t.TempDir()
					n, calls := pipeNode(t, ek, dir, 2, opts, nil)
					n.SubmitAll(calls)
					// Mine the fully-settled prefix.
					for b := 1; b < kill; b++ {
						if _, err := n.MineOne(recBlockSize); err != nil {
							t.Fatalf("kill=%d %s: mine %d: %v", kill, stage, b, err)
						}
					}
					if err := n.Flush(); err != nil {
						t.Fatalf("kill=%d %s: flush: %v", kill, stage, err)
					}

					// The kill block stops at the stage under test.
					durableWant := kill - 1
					switch stage {
					case "sealed-not-durable":
						// Seal block `kill` but never hand it to the persist
						// stage: the WAL must not know it.
						if _, err := n.mineOnePipelined(recBlockSize, false); err != nil {
							t.Fatalf("kill=%d: seal: %v", kill, err)
						}
					case "durable-not-published":
						// Fully persist block `kill`; the publish hook is nil,
						// so no peer ever heard of it — recovery must keep it
						// anyway, because the WAL speaks, not the gossip.
						if _, err := n.MineOne(recBlockSize); err != nil {
							t.Fatalf("kill=%d: mine: %v", kill, err)
						}
						if err := n.Flush(); err != nil {
							t.Fatalf("kill=%d: flush: %v", kill, err)
						}
						durableWant = kill
					}
					sealedHead, _ := headAndRoot(n)
					if sealedHead != refHeads[kill] {
						t.Fatalf("kill=%d %s: sealed head diverged from reference", kill, stage)
					}
					n.Kill()

					re, calls := pipeNode(t, ek, dir, 2, opts, nil)
					gotHead, gotRoot := headAndRoot(re)
					if gotHead != refHeads[durableWant] || gotRoot != refRoots[durableWant] {
						t.Fatalf("kill=%d %s: recovered to head %s, want durable prefix at height %d",
							kill, stage, gotHead.Short(), durableWant)
					}
					// The crash lost the pool; resubmit the unmined suffix
					// (FIFO consumed durableWant*blockSize calls) and mine the
					// rest of the reference chain through the pipeline.
					re.SubmitAll(calls[durableWant*recBlockSize:])
					if _, err := re.MinePipelined(recBlocks-durableWant, recBlockSize); err != nil {
						t.Fatalf("kill=%d %s: post-recovery mine: %v", kill, stage, err)
					}
					if h, r := headAndRoot(re); h != refHeads[recBlocks] || r != refRoots[recBlocks] {
						t.Fatalf("kill=%d %s: post-recovery chain diverged", kill, stage)
					}
					if err := re.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
				}
			}
		})
	}
}

// osNode builds a durable node over the deterministic recovery world on
// real OS threads.
func osNode(t *testing.T, ek engine.Kind, dataDir string, depth int) (*Node, []contract.Call) {
	t.Helper()
	world, calls := recWorld(t)
	n, err := New(Config{
		World: world, Workers: 3, Engine: ek,
		Runner:  runtime.NewOSRunner(nil),
		DataDir: dataDir, Persist: persist.Options{SnapshotEvery: -1},
		PipelineDepth: depth,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return n, calls
}

// assertRolledBackWorld checks a node whose persist stage failed: its
// world must sit exactly at the durable head — the state root recomputed
// from the rolled-back commitment cache equals the head's header root —
// and the block mined next from that world must be accepted by a fresh
// follower that imported the durable chain. A cache the rollback left
// stale would seal a root the follower's replay cannot reproduce.
func assertRolledBackWorld(t *testing.T, ek engine.Kind, n *Node, next []contract.Call) {
	t.Helper()
	n.execMu.Lock()
	defer n.execMu.Unlock()
	head := n.Head()
	root, err := n.world.StateRoot()
	if err != nil {
		t.Fatalf("rolled-back root: %v", err)
	}
	if root != head.Header.StateRoot {
		t.Fatalf("rolled-back world root %s, durable head %d root %s",
			root.Short(), head.Header.Number, head.Header.StateRoot.Short())
	}
	res, err := miner.Mine(n.eng, n.runner, n.world, head.Header, next, engine.Options{Workers: n.workers})
	if err != nil {
		t.Fatalf("mine after rollback: %v", err)
	}
	follower, _ := osNode(t, ek, "", 1)
	for h := uint64(1); h <= head.Header.Number; h++ {
		b, _ := n.BlockAt(h)
		if err := follower.AcceptBlock(b); err != nil {
			t.Fatalf("follower import of durable block %d: %v", h, err)
		}
	}
	if err := follower.AcceptBlock(res.Block); err != nil {
		t.Fatalf("follower rejected the block mined after rollback: %v", err)
	}
}

// TestPipelineAbortRollsBack: a persist failure mid-pipeline voids the
// sealed-not-durable suffix — the chain rewinds to the durable prefix,
// the world matches it, the aborted calls come back in arrival order, and
// the pipeline refuses further mining with the latched error. It runs on
// real threads, and the rolled-back world must still mine a block a fresh
// follower accepts.
func TestPipelineAbortRollsBack(t *testing.T) {
	for _, ek := range []engine.Kind{engine.KindSerial, engine.KindOCC} {
		t.Run(ek.String(), func(t *testing.T) { testPipelineAbortRollsBack(t, ek) })
	}
}

func testPipelineAbortRollsBack(t *testing.T, ek engine.Kind) {
	dir := t.TempDir()
	n, calls := osNode(t, ek, dir, 3)
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine 1: %v", err)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Sabotage the WAL under the writer: the next persist verdict fails.
	if err := n.log.Close(); err != nil {
		t.Fatalf("sabotage: %v", err)
	}
	// Mine until the failure surfaces (the seal itself may succeed — the
	// verdict is asynchronous).
	for i := 0; i < 10; i++ {
		if _, err := n.MineOne(recBlockSize); err != nil {
			break
		}
	}
	if err := n.Flush(); err == nil {
		t.Fatal("flush reported success over a closed WAL")
	}
	// Rolled back to the durable prefix.
	if got := n.Height(); got != 1 {
		t.Fatalf("height %d after abort, want durable prefix 1", got)
	}
	st := n.CurrentStatus()
	if st.DurableHeight != 1 || st.InFlight != 0 {
		t.Fatalf("status durable %d in-flight %d after abort", st.DurableHeight, st.InFlight)
	}
	// Every call beyond block 1 is back, in arrival order.
	pending := n.pool.PendingCalls()
	want := calls[recBlockSize:]
	if len(pending) != len(want) {
		t.Fatalf("pool holds %d calls after abort, want %d", len(pending), len(want))
	}
	for i := range want {
		if pending[i].Sender != want[i].Sender || pending[i].Function != want[i].Function {
			t.Fatalf("pool order broken at %d after abort", i)
		}
	}
	// Latched: no new blocks.
	if _, err := n.MineOne(recBlockSize); err == nil {
		t.Fatal("latched pipeline kept mining")
	}
	assertRolledBackWorld(t, ek, n, want[:recBlockSize])
}

// TestPipelineStatusSealedVsDurable: the status surface distinguishes the
// sealed head from the durable head while a block is in flight.
func TestPipelineStatusSealedVsDurable(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: -1}, nil)
	n.SubmitAll(calls)
	entryBlock, err := n.mineOnePipelined(recBlockSize, false)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	st := n.CurrentStatus()
	if st.Height != 1 || st.DurableHeight != 0 || st.InFlight != 1 {
		t.Fatalf("sealed-not-durable status: height %d durable %d in-flight %d",
			st.Height, st.DurableHeight, st.InFlight)
	}
	// Resume the parked persist stage and drain.
	n.mu.Lock()
	entry := n.inflight[0]
	n.mu.Unlock()
	if entry.block.Header.Hash() != entryBlock.Header.Hash() {
		t.Fatal("in-flight registry holds a different block")
	}
	n.submitEntry(entry)
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	st = n.CurrentStatus()
	if st.Height != 1 || st.DurableHeight != 1 || st.InFlight != 0 {
		t.Fatalf("drained status: height %d durable %d in-flight %d",
			st.Height, st.DurableHeight, st.InFlight)
	}
	if st.WalFsyncs == 0 || st.WalAppends != 1 || st.WalBytesWritten == 0 {
		t.Fatalf("WAL metrics missing: %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPipelineSnapshotNowIsDurableBounded: a checkpoint served to a
// fast-syncing joiner must never describe state the miner could lose in
// a crash. On a durable node SnapshotNow always has a persisted snapshot
// to serve (openDurable checkpoints genesis unconditionally), which is
// durable by construction; the live-encode fallback additionally drains
// the pipeline window before encoding, as defense in depth. Either way
// the served height must not exceed the durable height.
func TestPipelineSnapshotNowIsDurableBounded(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: -1}, nil)
	n.SubmitAll(calls)
	// Mine without flushing: the block's fsync is (at best) racing us.
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	s, err := n.SnapshotNow()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if durable := n.CurrentStatus().DurableHeight; s.Height() > durable {
		t.Fatalf("served snapshot at height %d above durable height %d", s.Height(), durable)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPipelineDepthOneIsSynchronous: PipelineDepth 1 must not change
// MineOne's contract — durable before return, no in-flight window.
func TestPipelineDepthOneIsSynchronous(t *testing.T) {
	dir := t.TempDir()
	n, calls := recNode(t, engine.KindSerial, dir, persist.Options{})
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	st := n.CurrentStatus()
	if st.DurableHeight != st.Height {
		t.Fatalf("synchronous node: durable %d != height %d", st.DurableHeight, st.Height)
	}
	if st.PipelineDepth != 0 || st.InFlight != 0 {
		t.Fatalf("synchronous node reports a pipeline: %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Sanity for the non-durable case too: DurableHeight mirrors Height.
	wl, err := workload.Generate(recParams())
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	mem, err := New(Config{World: wl.World, Workers: 1, Runner: runtime.NewSimRunner()})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	mem.SubmitAll(wl.Calls)
	if _, err := mem.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	if st := mem.CurrentStatus(); st.DurableHeight != st.Height {
		t.Fatalf("in-memory node: durable %d != height %d", st.DurableHeight, st.Height)
	}
}

// TestPipelineCloseDrains: Close on a pipelining node waits for in-flight
// verdicts, writes the overdue cadence checkpoint, and saves the
// post-drain mempool, so a graceful restart resumes with exactly the
// unmined suffix.
func TestPipelineCloseDrains(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: 1}, nil)
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	// No Flush: Close must drain on its own.
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The cadence checkpoint due at block 1 must be on disk now — the
	// pipelined path defers snapshots to drain points and Close is one
	// (checked before reopening, whose own cadence resume would mask it).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	found := false
	for _, e := range entries {
		if e.Name() == "snap-0000000000000001.snap" {
			found = true
		}
	}
	if !found {
		t.Fatal("Close left the due block-1 checkpoint unwritten")
	}
	re, _ := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: 1}, nil)
	defer re.Close()
	if got := re.Height(); got != 1 {
		t.Fatalf("reopened at height %d, want 1", got)
	}
	if got, want := re.PoolLen(), len(calls)-recBlockSize; got != want {
		t.Fatalf("restored pool %d calls, want %d", got, want)
	}
}

// TestPipelineServesOnlyDurable: the wire API's pull path (GET /head,
// GET /blocks/{h}) is gated at the durable height — a syncing peer must
// never receive a sealed-not-durable block the miner could still lose.
func TestPipelineServesOnlyDurable(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: -1}, nil)
	n.SubmitAll(calls)
	if _, err := n.mineOnePipelined(recBlockSize, false); err != nil {
		t.Fatalf("seal: %v", err)
	}
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	getJSON := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	// Sealed head is 1, durable head is 0: the wire serves 0.
	if code, head := getJSON("/v1/head"); code != http.StatusOK || head["number"].(float64) != 0 {
		t.Fatalf("/v1/head = %d %v, want the durable height 0", code, head["number"])
	}
	if code, _ := getJSON("/v1/blocks/1"); code != http.StatusNotFound {
		t.Fatalf("/v1/blocks/1 served a sealed-not-durable block (status %d)", code)
	}

	// Drain: the block becomes durable and the wire serves it.
	n.mu.Lock()
	entry := n.inflight[0]
	n.mu.Unlock()
	n.submitEntry(entry)
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if code, head := getJSON("/v1/head"); code != http.StatusOK || head["number"].(float64) != 1 {
		t.Fatalf("/v1/head = %d %v after drain, want 1", code, head["number"])
	}
	if code, _ := getJSON("/v1/blocks/1"); code != http.StatusOK {
		t.Fatalf("/v1/blocks/1 = %d after drain, want 200", code)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
