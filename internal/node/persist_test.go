package node

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// Durable-node tests. workload.Generate is deterministic in its params,
// so "the same genesis world" is regenerated at will — exactly how a
// restarted process rebuilds its genesis before recovery. The simulated
// runner makes mining itself deterministic, so a recovered node's
// subsequent blocks can be compared bit-for-bit against an uninterrupted
// run even for the parallel engines.

const (
	recBlocks    = 4
	recBlockSize = 6
)

func recParams() workload.Params {
	return workload.Params{
		Kind: workload.KindToken, Transactions: recBlocks * recBlockSize,
		ConflictPercent: 20, Seed: 41,
	}
}

// recWorld regenerates the deterministic genesis world and call list.
func recWorld(t *testing.T) (*contract.World, []contract.Call) {
	t.Helper()
	wl, err := workload.Generate(recParams())
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return wl.World, wl.Calls
}

// recNode builds a node over a fresh copy of the deterministic world.
func recNode(t *testing.T, ek engine.Kind, dataDir string, opts persist.Options) (*Node, []contract.Call) {
	t.Helper()
	world, calls := recWorld(t)
	n, err := New(Config{
		World: world, Workers: 3, Engine: ek,
		Runner:  runtime.NewSimRunner(),
		DataDir: dataDir, Persist: opts,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return n, calls
}

// headAndRoot snapshots the identity of a node's chain tip.
func headAndRoot(n *Node) (types.Hash, types.Hash) {
	h := n.Head().Header
	return h.Hash(), h.StateRoot
}

// TestCrashRecoveryEveryBlock is the property-style crash test: for every
// engine and every kill point N, a node that mined N blocks and died
// without any shutdown courtesy must recover from its data dir to the
// identical head hash and state root, and its subsequent mining must
// reproduce the uninterrupted run block for block.
func TestCrashRecoveryEveryBlock(t *testing.T) {
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			t.Parallel()
			// The uninterrupted reference run.
			ref, calls := recNode(t, ek, "", persist.Options{})
			ref.SubmitAll(calls)
			refHeads := make([]types.Hash, recBlocks+1)
			refRoots := make([]types.Hash, recBlocks+1)
			refHeads[0], refRoots[0] = headAndRoot(ref)
			for b := 1; b <= recBlocks; b++ {
				if _, err := ref.MineOne(recBlockSize); err != nil {
					t.Fatalf("reference mine %d: %v", b, err)
				}
				refHeads[b], refRoots[b] = headAndRoot(ref)
			}

			// SnapshotEvery 2 exercises both recovery flavors across the
			// kill points: snapshot + WAL tail, and pure WAL replay.
			opts := persist.Options{SnapshotEvery: 2}
			for kill := 1; kill <= recBlocks; kill++ {
				dir := t.TempDir()
				n, calls := recNode(t, ek, dir, opts)
				n.SubmitAll(calls)
				for b := 1; b <= kill; b++ {
					if _, err := n.MineOne(recBlockSize); err != nil {
						t.Fatalf("kill=%d: mine %d: %v", kill, b, err)
					}
				}
				if h, _ := headAndRoot(n); h != refHeads[kill] {
					t.Fatalf("kill=%d: pre-crash head diverged from reference", kill)
				}
				// Crash: no graceful Close, no pool save — Kill drops the
				// file handles (and data-dir lock) the way a dead process
				// would.
				n.Kill()

				re, calls := recNode(t, ek, dir, opts)
				gotHead, gotRoot := headAndRoot(re)
				if gotHead != refHeads[kill] || gotRoot != refRoots[kill] {
					t.Fatalf("kill=%d: recovered to head %s root %s, want %s %s",
						kill, gotHead.Short(), gotRoot.Short(), refHeads[kill].Short(), refRoots[kill].Short())
				}
				// The crash lost the pool; resubmit the unmined suffix (FIFO
				// selection consumed exactly kill*blockSize calls) and check
				// the recovered node keeps mining the reference chain.
				re.SubmitAll(calls[kill*recBlockSize:])
				for b := kill + 1; b <= recBlocks; b++ {
					if _, err := re.MineOne(recBlockSize); err != nil {
						t.Fatalf("kill=%d: post-recovery mine %d: %v", kill, b, err)
					}
					if h, r := headAndRoot(re); h != refHeads[b] || r != refRoots[b] {
						t.Fatalf("kill=%d: post-recovery block %d diverged from reference", kill, b)
					}
				}
				if err := re.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
		})
	}
}

// TestRecoveryRejectsForeignGenesis: a data dir belongs to one genesis
// world; reopening it under a different one must fail loudly — also in
// the adversarial case where the foreign world has the same contracts
// (so a state restore would "work") and snapshot retention has already
// pruned the genesis snapshot.
func TestRecoveryRejectsForeignGenesis(t *testing.T) {
	// Every block snapshots, so by the third block the genesis snapshot
	// file is pruned and only the permanent identity marker remembers
	// where this directory came from.
	opts := persist.Options{SnapshotEvery: 1}
	dir := t.TempDir()
	n, calls := recNode(t, engine.KindSerial, dir, opts)
	n.SubmitAll(calls)
	for b := 1; b <= 3; b++ {
		if _, err := n.MineOne(recBlockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A structurally different world.
	other, err := workload.Generate(workload.Params{
		Kind: workload.KindBallot, Transactions: 4, ConflictPercent: 0, Seed: 9,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if _, err := New(Config{World: other.World, Workers: 1, DataDir: dir, Persist: opts}); err == nil {
		t.Fatal("foreign genesis world reopened someone else's data dir")
	}

	// The same deterministic setup but a different seed: identical
	// object names, different genesis state. RestoreState alone would
	// succeed, so only the identity marker stands between this and
	// silently adopting the wrong chain.
	sameShape, err := workload.Generate(func() workload.Params {
		p := recParams()
		p.Seed++
		return p
	}())
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if _, err := New(Config{World: sameShape.World, Workers: 1, DataDir: dir, Persist: opts}); err == nil {
		t.Fatal("same-shape foreign genesis adopted the data dir")
	}

	// The rightful world still opens it.
	re, _ := recNode(t, engine.KindSerial, dir, opts)
	if re.Head().Header.Number != 3 {
		t.Fatalf("rightful reopen at height %d, want 3", re.Head().Header.Number)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPoolSurvivesRestart is the txpool restart-gap fix: submitted but
// unmined calls must survive a graceful shutdown and land back in the
// reopened node's pool, in order.
func TestPoolSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	n, calls := recNode(t, engine.KindSerial, dir, persist.Options{})
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	pending := n.PoolLen()
	if pending == 0 {
		t.Fatal("test needs unmined calls in the pool")
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, _ := recNode(t, engine.KindSerial, dir, persist.Options{})
	if got := re.PoolLen(); got != pending {
		t.Fatalf("restored pool %d calls, want %d", got, pending)
	}
	// The restored calls are the original unmined suffix, still in order:
	// mining them reproduces the uninterrupted chain.
	ref, refCalls := recNode(t, engine.KindSerial, "", persist.Options{})
	ref.SubmitAll(refCalls)
	for b := 1; b <= recBlocks; b++ {
		if _, err := ref.MineOne(recBlockSize); err != nil {
			t.Fatalf("reference mine: %v", err)
		}
	}
	for b := 2; b <= recBlocks; b++ {
		if _, err := re.MineOne(recBlockSize); err != nil {
			t.Fatalf("post-restart mine: %v", err)
		}
	}
	if re.Head().Header.Hash() != ref.Head().Header.Hash() {
		t.Fatal("chain mined from the restored pool diverged from reference")
	}
	if err := re.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The pool file was consumed: a crash-reopen now must not resurrect
	// stale calls... but Close above re-saved the current pool, so drain
	// it first and close again.
	re2, _ := recNode(t, engine.KindSerial, dir, persist.Options{})
	for re2.PoolLen() > 0 {
		if _, err := re2.MineOne(recBlockSize); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if err := re2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re3, _ := recNode(t, engine.KindSerial, dir, persist.Options{})
	defer re3.Close()
	if got := re3.PoolLen(); got != 0 {
		t.Fatalf("drained node restored %d pool calls, want 0", got)
	}
}

// TestStatusReportsPersistence: the status surface carries the durable
// node's recovery facts.
func TestStatusReportsPersistence(t *testing.T) {
	dir := t.TempDir()
	n, calls := recNode(t, engine.KindSerial, dir, persist.Options{SnapshotEvery: 2})
	n.SubmitAll(calls)
	for b := 1; b <= 3; b++ {
		if _, err := n.MineOne(recBlockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	// Crash (no graceful Close) and recover.
	n.Kill()
	re, _ := recNode(t, engine.KindSerial, dir, persist.Options{SnapshotEvery: 2})
	defer re.Close()
	st := re.CurrentStatus()
	if !st.Persistent {
		t.Fatal("status not persistent")
	}
	if st.SnapshotHeight != 2 {
		t.Fatalf("snapshot height %d, want 2", st.SnapshotHeight)
	}
	if st.RecoveredBlocks != 1 {
		t.Fatalf("recovered %d blocks, want 1 (WAL tail after snapshot)", st.RecoveredBlocks)
	}
	if st.Height != 3 {
		t.Fatalf("height %d, want 3", st.Height)
	}
}

// TestPersistFailureRollsBack is the synchronous persist-failure case:
// MineOne executes the block and computes its state root, then the WAL
// write fails. The world must roll back to the durable head — root and
// commitment cache both — and the block mined next from it must be
// accepted by a fresh follower. Runs on real threads.
func TestPersistFailureRollsBack(t *testing.T) {
	for _, ek := range []engine.Kind{engine.KindSerial, engine.KindOCC} {
		t.Run(ek.String(), func(t *testing.T) {
			n, calls := osNode(t, ek, t.TempDir(), 1)
			n.SubmitAll(calls)
			if _, err := n.MineOne(recBlockSize); err != nil {
				t.Fatalf("mine 1: %v", err)
			}
			if err := n.log.Close(); err != nil {
				t.Fatalf("sabotage: %v", err)
			}
			if _, err := n.MineOne(recBlockSize); err == nil {
				t.Fatal("mine over a closed WAL succeeded")
			}
			if got := n.Height(); got != 1 {
				t.Fatalf("height %d after the failed persist, want 1", got)
			}
			assertRolledBackWorld(t, ek, n, calls[recBlockSize:2*recBlockSize])
		})
	}
}

// TestGobEraDataDirRefused: a data directory written by a gob-era
// release — genesis marker and genesis snapshot both gob-encoded behind
// the usual length+CRC frame — makes node.New fail with
// persist.ErrLegacyDataDir, naming the directory, and leaves every file
// as it was.
func TestGobEraDataDirRefused(t *testing.T) {
	dir := t.TempDir()
	world, _ := recWorld(t)
	root, err := world.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	state, err := world.EncodeState()
	if err != nil {
		t.Fatalf("encode state: %v", err)
	}
	genesis := chain.GenesisHeader(root)
	writeGobFrame := func(name string, v any) []byte {
		t.Helper()
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(v); err != nil {
			t.Fatalf("gob encode %s: %v", name, err)
		}
		framed := make([]byte, 8, 8+payload.Len())
		binary.BigEndian.PutUint32(framed[0:4], uint32(payload.Len()))
		binary.BigEndian.PutUint32(framed[4:8], crc32.ChecksumIEEE(payload.Bytes()))
		framed = append(framed, payload.Bytes()...)
		if err := os.WriteFile(filepath.Join(dir, name), framed, 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		return framed
	}
	marker := writeGobFrame("genesis.id", genesis)
	writeGobFrame("snap-0000000000000000.snap", struct {
		Version uint32
		Header  chain.Header
		State   []byte
	}{1, genesis, state})

	_, err = New(Config{World: world, Workers: 3, Runner: runtime.NewSimRunner(), DataDir: dir})
	if !errors.Is(err, persist.ErrLegacyDataDir) {
		t.Fatalf("node.New on a gob-era dir: %v, want persist.ErrLegacyDataDir", err)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the directory", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "genesis.id")); !bytes.Equal(got, marker) {
		t.Fatal("refused data dir's genesis marker was rewritten")
	}
}
