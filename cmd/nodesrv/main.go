// Command nodesrv runs a single blockchain node over HTTP: a mempool, the
// speculative parallel miner and the deterministic fork-join validator
// behind the JSON API of internal/node. A demo world (Token, Ballot,
// SimpleAuction, EtherDoc contracts at well-known addresses) is deployed
// at genesis so the API is immediately usable.
//
// Usage:
//
//	nodesrv [-addr :8547] [-workers 3] [-policy fifo|spread|lockhint] [-engine serial|speculative|occ]
//	        [-data DIR] [-sync-every 1] [-snap-every 256] [-pipeline 1]
//	        [-max-gas 100000000] [-default-gas 1000000] [-blocksize 100]
//	        [-mempool-shards 16] [-mempool-sender-slots 0] [-mempool-rate 0]
//	        [-mempool-burst 8] [-mempool-max-bytes 0] [-mempool-shard-entries 0]
//	        [-pprof 127.0.0.1:6060]
//	        [-upstream http://primary:8547] [-history] [-subscriber-buffer 64]
//
// The -mempool-* flags tune transaction admission on POST /v1/tx: the
// pool is sharded by sender (-mempool-shards), each sender may hold at
// most -mempool-sender-slots queued transactions (0 = unlimited) and
// submit at -mempool-rate per second with bursts of -mempool-burst
// (0 = unlimited), and the pool sheds load beyond -mempool-max-bytes
// total or -mempool-shard-entries per shard (0 = unlimited). Shed
// submissions answer 429 with a Retry-After hint; the Go SDK honors it.
//
// With -data the node is durable: blocks append to a write-ahead log
// before becoming visible, state snapshots are written every -snap-every
// blocks, and a restart with the same -data recovers the chain (and the
// pending mempool, saved on graceful shutdown via SIGINT/SIGTERM) by
// replaying the WAL through the validator.
//
// With -pipeline N (N >= 2) block production is pipelined: POST /mine
// returns once the block is sealed, its WAL fsync runs in the background
// group-commit writer, and GET /status reports the sealed height next to
// the durable height. Depth 1 (the default) is fully synchronous.
//
// With -upstream URL the node runs as a read replica: it catches up from
// the primary, follows its event stream through the relay (one upstream
// subscription no matter how many local /v1/subscribe clients), and
// serves the read API at its own durable height — every response carries
// X-Chain-Height, and min_height-gated reads answer 412 when the replica
// is behind. Add -history to also serve historical state queries
// (GET /v1/state/{addr}?height=H) from a shadow copy of the demo
// genesis. -subscriber-buffer widens each local subscriber's event
// buffer, which relay nodes serving many downstream clients want.
//
// Example session:
//
//	curl -s localhost:8547/v1/status
//	ID=$(curl -s -X POST -H 'Content-Type: application/json' localhost:8547/v1/tx -d '{
//	  "sender":   "<0x… funded holder>",
//	  "contract": "<0x… token address>",
//	  "function": "transfer",
//	  "args": [{"type":"address","value":"0x…"},{"type":"uint64","value":"5"}],
//	  "gasLimit": 100000}' | sed 's/.*"id":"\([^"]*\)".*/\1/')
//	curl -s -X POST localhost:8547/v1/mine -d '{"blockSize": 100}'
//	curl -s localhost:8547/v1/tx/$ID        # the receipt, once durable
//	curl -s localhost:8547/v1/head
//
// Every route lives under /v1; see docs/API.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"contractstm/internal/api"
	"contractstm/internal/contract"
	"contractstm/internal/contracts"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/mempool"
	"contractstm/internal/node"
	"contractstm/internal/persist"
	"contractstm/internal/replica"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nodesrv:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8547", "listen address")
		workers    = flag.Int("workers", 3, "miner/validator pool size")
		policyName = flag.String("policy", "fifo", `block selection: "fifo", "spread" or "lockhint"`)
		engName    = flag.String("engine", "speculative", `execution engine: "serial", "speculative" or "occ"`)
		dataDir    = flag.String("data", "", "durable data directory (empty = in-memory only)")
		syncEvery  = flag.Int("sync-every", 1, "fsync the WAL every N blocks (negative = never)")
		snapEvery  = flag.Int("snap-every", persist.DefaultSnapshotEvery, "write a state snapshot every N blocks (negative = never)")
		pipeline   = flag.Int("pipeline", 1, "sealed-not-durable pipeline window (1 = synchronous mining)")
		maxGas     = flag.Uint64("max-gas", api.DefaultMaxGasLimit, "reject submitted transactions with a gas limit above this")
		defaultGas = flag.Uint64("default-gas", api.DefaultGasLimit, "gas limit assigned to transactions that leave it unset")
		blockSize  = flag.Int("blocksize", api.DefaultBlockSize, "default block size for mine requests that leave it unset")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060; empty = off)")
		importMode = flag.String("import-mode", "off", `staged parallel import rollout: "off", "shadow" or "on"`)

		mpShards       = flag.Int("mempool-shards", 0, "mempool shard count (0 = default 16)")
		mpSenderSlots  = flag.Int("mempool-sender-slots", 0, "max queued transactions per sender (0 = unlimited)")
		mpRate         = flag.Float64("mempool-rate", 0, "per-sender admission rate limit in tx/s (0 = unlimited)")
		mpBurst        = flag.Int("mempool-burst", 0, "per-sender admission burst size (0 = default 8)")
		mpMaxBytes     = flag.Int64("mempool-max-bytes", 0, "total mempool byte budget; beyond it lower-priority transactions are evicted (0 = unlimited)")
		mpShardEntries = flag.Int("mempool-shard-entries", 0, "max entries per mempool shard (0 = unlimited)")

		upstream  = flag.String("upstream", "", "primary node URL; set it to run as a read replica")
		history   = flag.Bool("history", false, "with -upstream, serve historical state queries from a shadow world")
		subBuffer = flag.Int("subscriber-buffer", 0, "per-subscriber event buffer on /v1/subscribe (0 = default 64)")
	)
	flag.Parse()

	policy, err := txpool.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	engKind, err := engine.ParseKind(*engName)
	if err != nil {
		return err
	}
	impMode, err := node.ParseImportMode(*importMode)
	if err != nil {
		return err
	}

	world, err := demoWorld()
	if err != nil {
		return err
	}
	n, err := node.New(node.Config{
		World: world, Workers: *workers, SelectionPolicy: policy, Engine: engKind,
		DataDir:          *dataDir,
		Persist:          persist.Options{SyncEvery: *syncEvery, SnapshotEvery: *snapEvery},
		PipelineDepth:    *pipeline,
		MaxGasLimit:      *maxGas,
		DefaultGasLimit:  *defaultGas,
		DefaultBlockSize: *blockSize,
		ImportMode:       impMode,
		SubscriberBuffer: *subBuffer,
		Mempool: mempool.Config{
			Shards:          *mpShards,
			PerSenderSlots:  *mpSenderSlots,
			RatePerSec:      *mpRate,
			Burst:           *mpBurst,
			MaxBytes:        *mpMaxBytes,
			MaxShardEntries: *mpShardEntries,
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("nodesrv listening on %s (workers=%d, policy=%s, engine=%s, pipeline=%d)\n",
		*addr, *workers, *policyName, engKind, *pipeline)
	if *dataDir != "" {
		st := n.CurrentStatus()
		fmt.Printf("durable: data=%s height=%d recovered=%d blocks, pool=%d pending\n",
			*dataDir, st.Height, st.RecoveredBlocks, st.PoolLen)
	}
	printDemoAddresses()

	// Profiling stays off the public API listener: -pprof binds a separate
	// (typically loopback-only) address so operators can capture profiles
	// from a live node without exposing the debug surface to clients.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "nodesrv: pprof listener:", err)
			}
		}()
		defer pprofSrv.Close()
		fmt.Printf("pprof listening on %s (side listener, keep it private)\n", *pprofAddr)
	}

	// Slow-client protection: bound header and request reads and reap
	// idle keep-alive connections. WriteTimeout stays unset — the
	// /v1/subscribe event stream is a deliberately long-lived response,
	// and per-request handling is already bounded by the API layer's
	// route timeouts.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           n.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// Every node shuts down gracefully on SIGINT/SIGTERM: in-flight
	// requests drain, and a durable node additionally saves its pending
	// mempool and cleanly syncs the WAL in Close.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *upstream != "" {
		rcfg := replica.Config{
			Node: n, Upstream: *upstream,
			ErrorLog: func(err error) { fmt.Fprintln(os.Stderr, "nodesrv: replica:", err) },
		}
		if *history {
			// The shadow world rebuilds the same deterministic demo
			// genesis; AttachHistory cross-checks it against the chain.
			shadow, err := demoWorld()
			if err != nil {
				return err
			}
			rcfg.ShadowWorld = shadow
		}
		rep, err := replica.New(rcfg)
		if err != nil {
			return err
		}
		go func() {
			if err := rep.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				// A dead relay means a silently staling replica — stop
				// serving rather than drift unboundedly behind.
				fmt.Fprintln(os.Stderr, "nodesrv: replica stopped:", err)
				stop()
			}
		}()
		fmt.Printf("replica: following %s (history=%v)\n", *upstream, *history)
	} else if *history {
		return errors.New("-history requires -upstream")
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := n.Close(); err != nil {
		return err
	}
	if *dataDir != "" {
		fmt.Println("nodesrv: state and mempool saved, bye")
	} else {
		fmt.Println("nodesrv: bye")
	}
	return nil
}

// Demo genesis: four contracts at deterministic addresses and ten funded
// token holders.
var (
	demoToken   = types.AddressFromUint64(0x70C3)
	demoBallot  = types.AddressFromUint64(0xBA11)
	demoAuction = types.AddressFromUint64(0xA0C7)
	demoDocs    = types.AddressFromUint64(0xD0C5)
	demoChair   = types.AddressFromUint64(0xC4A1)
)

func demoWorld() (*contract.World, error) {
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		return nil, err
	}
	token, err := contracts.NewToken(w, demoToken, demoChair, 1_000_000_000)
	if err != nil {
		return nil, err
	}
	ballot, err := contracts.NewBallot(w, demoBallot, demoChair, []string{"alpha", "beta", "gamma"})
	if err != nil {
		return nil, err
	}
	if _, err := contracts.NewSimpleAuction(w, demoAuction, demoChair); err != nil {
		return nil, err
	}
	if _, err := contracts.NewEtherDoc(w, demoDocs); err != nil {
		return nil, err
	}
	for i := 0; i < 10; i++ {
		holder := types.AddressFromUint64(uint64(0x4000 + i))
		if err := token.SeedBalance(w, holder, 10_000); err != nil {
			return nil, err
		}
		if err := ballot.SeedVoter(w, holder); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func printDemoAddresses() {
	fmt.Println("demo contracts:")
	fmt.Printf("  token    %s\n", demoToken)
	fmt.Printf("  ballot   %s\n", demoBallot)
	fmt.Printf("  auction  %s\n", demoAuction)
	fmt.Printf("  etherdoc %s\n", demoDocs)
	fmt.Println("funded holders / registered voters:")
	for i := 0; i < 10; i++ {
		fmt.Printf("  %s\n", types.AddressFromUint64(uint64(0x4000+i)))
	}
}
