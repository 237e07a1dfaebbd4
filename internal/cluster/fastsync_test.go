package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/node"
	"contractstm/internal/persist"
)

// TestFastSyncLateJoiner is the acceptance scenario: a late joiner
// fetches the miner's newest state checkpoint over the wire, installs
// it, and replays only the blocks after it — converging without
// replaying the full chain, and holding a pruned chain below the
// checkpoint.
func TestFastSyncLateJoiner(t *testing.T) {
	const blocks, blockSize = 7, 6
	// One extra block's worth of calls stays pooled for the post-sync act.
	worlds, calls := newClusterWorlds(t, 2, (blocks+1)*blockSize)
	dir := t.TempDir()
	cl, err := New(Config{
		Worlds: worlds[:1], Engine: engine.KindSpeculative, Workers: 3,
		DataDirs: []string{dir},
		// Snapshots at heights 3 and 6; head ends at 7, so fast-sync
		// must install 6 and re-validate exactly one tail block.
		Persist: persist.Options{SnapshotEvery: 3, SyncEvery: -1},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(cl.Close)
	miner := cl.Node(0)
	miner.SubmitAll(calls)
	for b := 0; b < blocks; b++ {
		if _, err := miner.MineOne(blockSize); err != nil {
			t.Fatalf("mine %d: %v", b+1, err)
		}
	}

	late, err := node.New(node.Config{World: worlds[1], Workers: 3, Engine: engine.KindSpeculative})
	if err != nil {
		t.Fatalf("late node: %v", err)
	}
	res, err := FastSync(context.Background(), late, cl.Peer(0))
	if err != nil {
		t.Fatalf("fast-sync: %v", err)
	}
	if !res.Installed || res.SnapshotHeight != 6 {
		t.Fatalf("installed=%v at %d, want snapshot 6", res.Installed, res.SnapshotHeight)
	}
	if res.Imported != 1 {
		t.Fatalf("imported %d tail blocks, want 1 (not the full chain)", res.Imported)
	}
	if late.Head().Header.Hash() != miner.Head().Header.Hash() {
		t.Fatal("late joiner did not converge to the miner's head")
	}
	st := late.CurrentStatus()
	if st.ChainBase != 6 {
		t.Fatalf("late joiner chain base %d, want 6", st.ChainBase)
	}
	if _, ok := late.BlockAt(1); ok {
		t.Fatal("fast-synced node claims to hold pruned history")
	}

	// The fast-synced node keeps working as a follower: new blocks from
	// the miner import through full validation.
	blk, err := miner.MineOne(blockSize)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if err := late.AcceptBlock(blk); err != nil {
		t.Fatalf("fast-synced node rejected the next block: %v", err)
	}
	if late.Head().Header.Hash() != miner.Head().Header.Hash() {
		t.Fatal("fast-synced node diverged on the next block")
	}
}

// TestFastSyncStaleSnapshotDegrades: when the peer's checkpoint is not
// ahead of the local head, fast-sync must not install anything and must
// still converge by plain catch-up.
func TestFastSyncStaleSnapshotDegrades(t *testing.T) {
	const blocks, blockSize = 3, 5
	worlds, calls := newClusterWorlds(t, 2, blocks*blockSize)
	// Non-durable miner with no snapshots beyond on-demand: the endpoint
	// serves a head checkpoint, so give the late joiner the same height
	// first, then check idempotence of a second fast-sync.
	cl, err := New(Config{Worlds: worlds[:1], Engine: engine.KindSerial, Workers: 2})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(cl.Close)
	miner := cl.Node(0)
	miner.SubmitAll(calls)
	for b := 0; b < blocks; b++ {
		if _, err := miner.MineOne(blockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	late, err := node.New(node.Config{World: worlds[1], Workers: 2, Engine: engine.KindSerial})
	if err != nil {
		t.Fatalf("late node: %v", err)
	}
	first, err := FastSync(context.Background(), late, cl.Peer(0))
	if err != nil {
		t.Fatalf("fast-sync: %v", err)
	}
	if !first.Installed {
		t.Fatalf("first fast-sync should install the on-demand head checkpoint, got %+v", first)
	}
	// Second run: the checkpoint equals the local head — stale, skipped.
	again, err := FastSync(context.Background(), late, cl.Peer(0))
	if err != nil {
		t.Fatalf("repeat fast-sync: %v", err)
	}
	if again.Installed || again.Imported != 0 {
		t.Fatalf("repeat fast-sync did work: %+v", again)
	}
	if late.Head().Header.Hash() != miner.Head().Header.Hash() {
		t.Fatal("not converged")
	}
}

// TestFastSyncFallsBackWithoutEndpoint: a peer that does not serve
// /snapshot (an older build) degrades fast-sync to a full catch-up.
func TestFastSyncFallsBackWithoutEndpoint(t *testing.T) {
	const blocks, blockSize = 3, 5
	worlds, calls := newClusterWorlds(t, 2, blocks*blockSize)
	miner, err := node.New(node.Config{World: worlds[0], Workers: 2, Engine: engine.KindSerial})
	if err != nil {
		t.Fatalf("miner: %v", err)
	}
	miner.SubmitAll(calls)
	for b := 0; b < blocks; b++ {
		if _, err := miner.MineOne(blockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	// An "old" node: the full wire API minus the snapshot endpoint.
	inner := miner.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/snapshot") {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	peer := NewPeer(srv.URL, nil)
	if _, err := peer.Snapshot(context.Background()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Snapshot: %v, want ErrNoSnapshot", err)
	}
	late, err := node.New(node.Config{World: worlds[1], Workers: 2, Engine: engine.KindSerial})
	if err != nil {
		t.Fatalf("late node: %v", err)
	}
	res, err := FastSync(context.Background(), late, peer)
	if err != nil {
		t.Fatalf("fast-sync: %v", err)
	}
	if res.Installed {
		t.Fatal("installed a snapshot from a peer without the endpoint")
	}
	if res.Imported != blocks {
		t.Fatalf("imported %d, want the full %d-block catch-up", res.Imported, blocks)
	}
	if late.Head().Header.Hash() != miner.Head().Header.Hash() {
		t.Fatal("not converged")
	}
}

// TestInstallSnapshotRejectsLyingHeader: a checkpoint whose state does
// not hash to its header's state root must be refused with the local
// state intact.
func TestInstallSnapshotRejectsLyingHeader(t *testing.T) {
	const blocks, blockSize = 2, 5
	worlds, calls := newClusterWorlds(t, 2, blocks*blockSize)
	cl, err := New(Config{Worlds: worlds[:1], Engine: engine.KindSerial, Workers: 2})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(cl.Close)
	miner := cl.Node(0)
	miner.SubmitAll(calls)
	for b := 0; b < blocks; b++ {
		if _, err := miner.MineOne(blockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	s, err := cl.Peer(0).Snapshot(context.Background())
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s.Header.StateRoot[0] ^= 0xff // the header now lies about the state

	late, err := node.New(node.Config{World: worlds[1], Workers: 2, Engine: engine.KindSerial})
	if err != nil {
		t.Fatalf("late node: %v", err)
	}
	preRoot, _ := worlds[1].StateRoot()
	if err := late.InstallSnapshot(s); err == nil {
		t.Fatal("lying checkpoint installed")
	}
	if postRoot, _ := worlds[1].StateRoot(); postRoot != preRoot {
		t.Fatal("failed install left the world state modified")
	}
	if late.Head().Header.Number != 0 {
		t.Fatal("failed install moved the chain")
	}
}
