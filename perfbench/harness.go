package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/cluster"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/importer"
	"contractstm/internal/node"
	"contractstm/internal/persist"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// maxAttemptsPerBlock bounds MineOne attempts at one height. A block that
// cannot be mined within it is livelocked: the run ends there and the
// transactions still without a durable receipt count as failed.
const maxAttemptsPerBlock = 100

// openWindows is how many consecutive windows the open loop is split
// into; each gets its own confirmation and block-time percentiles.
const openWindows = 8

// importQuarters is how many equal height ranges each catch-up is split
// into; import_tps is the median of their rates.
const importQuarters = 4

// setupsPerRun is the minimum number of set-ups one run times, so the
// reported setup_s is a median.
const setupsPerRun = 5

// openShare is the share of the window the open loop offers load for.
// The follower's catch-up that follows costs about as long as the loop
// (both pay the state commitment per block), so the two together fill
// the window.
const openShare = 0.5

// blockChunk is the fewest blocks a window of block_ms_p90 holds, so
// each window's p90 has at least 10 blocks beyond it.
const blockChunk = 100

// bench is one benchmark run of one workload.
type bench struct {
	spec     spec
	seed     int64
	dir      string
	deadline time.Time // no phase may run past it
	rec      *recorder // nil when untraced
	dirSeq   int
	// maxAttempts bounds MineOne attempts per block (maxAttemptsPerBlock).
	maxAttempts int
}

// pass accumulates the measurements of one measured phase: the rounds of
// a backlog workload, or the window of the open loop.
type pass struct {
	setups []float64 // seconds per set-up

	blockTimes samples // miner wall time per durable block, failed attempts included
	// blockWindows splits blockTimes by window (backlog round, or the
	// open loop's windows by completion time) for the median-of-windows
	// p50.
	blockWindows []samples
	mineAttempts int
	mineFails    int
	// mineTPS holds durable txs ÷ drain wall time, one per round
	// (backlog) or one per run (open loop); importTPS one quarterRate per
	// catch-up.
	mineTPS   []float64
	importTPS []float64
	// confirms holds, per window, each tx's time from due to durable
	// receipt. A window is a backlog round or one of the open loop's
	// openWindows; the reported percentiles are medians over windows, so
	// one stall moves one window, not the run.
	confirms []samples

	attempted, failed int
	livelocked        bool

	// Intake side (the api layer on the open loop, the trusted prefill
	// on backlog workloads).
	submits    samples // per-tx submit time
	refused    int
	late       time.Duration // how late the generator delivered a tx, at most
	backlogMax int

	// replay holds the first round's inputs and blocks for the traced
	// replay (kept only on traced passes).
	replay *replayInput
}

// replayInput is what the traced replay needs to re-run blocks from the
// genesis pre-state: the prefill the pool started with (backlog) and the
// blocks the node sealed.
type replayInput struct {
	prefill []contract.Call
	blocks  []chain.Block
}

// rig is one set-up: a durable miner node served over loopback HTTP and a
// fresh durable follower with staged import on, both at the generated
// genesis.
type rig struct {
	w        *workload.Workload
	miner    *node.Node
	fworld   *contract.World
	follower *node.Node
	srv      *http.Server
	served   chan struct{}
	url      string
	dirs     []string
	errs     atomic.Int64
}

func (b *bench) nodeConfig(w *contract.World, dir string, mode node.ImportMode, r *rig) node.Config {
	return node.Config{
		World:         w,
		Workers:       3,
		Engine:        engine.KindSpeculative,
		DataDir:       dir,
		Persist:       persist.Options{SyncEvery: 1, SnapshotEvery: persist.DefaultSnapshotEvery},
		PipelineDepth: 1,
		ImportMode:    mode,
		ErrorLog: func(err error) {
			r.errs.Add(1)
			fmt.Fprintln(os.Stderr, "perfbench: node:", err)
		},
	}
}

func (b *bench) newDir(role string) (string, error) {
	b.dirSeq++
	d := filepath.Join(b.dir, fmt.Sprintf("%s-%d", role, b.dirSeq))
	return d, os.MkdirAll(d, 0o755)
}

// inputSeed is the workload seed of round r. Each backlog round drains
// other transactions from another genesis of the same size, so a run
// averages over input structure instead of repeating one input.
func (b *bench) inputSeed(round int) int64 { return b.seed*1000 + int64(round) }

// newRig generates the genesis of round twice (miner and follower),
// starts both nodes and serves the miner on a loopback port.
func (b *bench) newRig(round int) (*rig, error) {
	r := &rig{served: make(chan struct{})}
	var err error
	if r.w, err = b.spec.generate(b.inputSeed(round)); err != nil {
		return nil, err
	}
	mdir, err := b.newDir("miner")
	if err != nil {
		return nil, err
	}
	r.dirs = append(r.dirs, mdir)
	if r.miner, err = node.New(b.nodeConfig(r.w.World, mdir, node.ImportOff, r)); err != nil {
		return nil, err
	}
	fw, err := b.spec.generate(b.inputSeed(round))
	if err != nil {
		r.close()
		return nil, err
	}
	r.fworld = fw.World
	fdir, err := b.newDir("follower")
	if err != nil {
		r.close()
		return nil, err
	}
	r.dirs = append(r.dirs, fdir)
	if r.follower, err = node.New(b.nodeConfig(fw.World, fdir, node.ImportOn, r)); err != nil {
		r.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.url = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: r.miner.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(r.served)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return r, nil
}

// close stops the server and both nodes and deletes their data.
func (r *rig) close() error {
	var errs []error
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
		<-r.served
	}
	if r.miner != nil {
		errs = append(errs, r.miner.Close())
	}
	if r.follower != nil {
		errs = append(errs, r.follower.Close())
	}
	for _, d := range r.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	if n := r.errs.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("nodes logged %d serving errors", n))
	}
	return errors.Join(errs...)
}

// oneConn is an HTTP client limited to a single connection.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// measure runs the workload for about window of measured time and
// returns what it saw. minSetups set-ups are timed at least; keep asks
// for the first round's blocks for the traced replay.
func (b *bench) measure(window time.Duration, minSetups int, keep bool) (*pass, error) {
	p := &pass{}
	if b.spec.openLoop() {
		return p, b.openLoop(p, window, minSetups, keep)
	}
	var measured time.Duration
	for round := 0; round < minSetups || measured < window; round++ {
		if time.Now().After(b.deadline) {
			return nil, fmt.Errorf("deadline passed after %d rounds", round)
		}
		// Every round starts from a collected heap, so garbage left by
		// the previous round is not charged to this one.
		goruntime.GC()
		start := time.Now()
		if err := b.backlogRound(p, round, keep && round == 0); err != nil {
			return nil, err
		}
		measured += time.Since(start)
		if p.livelocked {
			break
		}
	}
	return p, nil
}

// backlogRound sets up, prefills the pool with the workload's prefix
// through the node's trusted intake, drains it with one closed-loop miner
// (the next block starts once the previous one is durable), then has the
// follower catch up over HTTP.
func (b *bench) backlogRound(p *pass, round int, keep bool) error {
	setupStart := time.Now()
	r, err := b.newRig(round)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	calls := r.w.Calls[:b.spec.prefix]
	prefillStart := time.Now()
	for i := 0; i < len(calls); i += blockSize {
		j := min(i+blockSize, len(calls))
		t := time.Now()
		r.miner.SubmitAll(calls[i:j])
		p.submits = append(p.submits, time.Since(t)/time.Duration(j-i))
	}
	p.late = max(p.late, time.Since(prefillStart))
	p.backlogMax = max(p.backlogMax, r.miner.PoolLen())
	p.setups = append(p.setups, time.Since(setupStart).Seconds())
	p.attempted += len(calls)

	start := time.Now()
	var confirms, blocks samples
	mined := 0
	for r.miner.PoolLen() > 0 {
		blk, took, ok := b.mineBlock(r, p)
		if !ok {
			break
		}
		now := time.Now()
		blocks = append(blocks, took)
		for range blk.Calls {
			confirms = append(confirms, now.Sub(start))
		}
		mined += len(blk.Calls)
	}
	drain := time.Since(start)
	p.mineTPS = append(p.mineTPS, float64(mined)/drain.Seconds())
	p.confirms = append(p.confirms, confirms)
	p.blockTimes = append(p.blockTimes, blocks...)
	p.blockWindows = append(p.blockWindows, blocks)
	p.failed += r.miner.PoolLen()
	fmt.Fprintf(os.Stderr, "perfbench: round: set-up %.3fs, drained %d txs in %v\n",
		p.setups[len(p.setups)-1], len(calls)-r.miner.PoolLen(), drain.Round(time.Millisecond))

	err = b.checkMined(r, calls, p.livelocked)
	if err == nil {
		err = b.catchUp(r, p)
	}
	if err == nil && keep {
		p.replay = &replayInput{prefill: calls, blocks: chainOf(r.miner)}
	}
	return errors.Join(err, r.close())
}

// checkMined verifies that the node's chain holds every prefilled
// transaction exactly once (all of them unless the run livelocked).
func (b *bench) checkMined(r *rig, calls []contract.Call, partial bool) error {
	want := make(map[types.Hash]int, len(calls))
	for _, c := range calls {
		want[wire.TxIDOf(c)]++
	}
	for _, blk := range chainOf(r.miner) {
		for _, c := range blk.Calls {
			id := wire.TxIDOf(c)
			if want[id] == 0 {
				return fmt.Errorf("check: block %d holds a transaction not submitted, or twice", blk.Header.Number)
			}
			want[id]--
		}
	}
	if partial {
		return nil
	}
	for _, left := range want {
		if left != 0 {
			return fmt.Errorf("check: a submitted transaction is missing from the chain")
		}
	}
	return nil
}

// chainOf returns a node's blocks above genesis, oldest first.
func chainOf(n *node.Node) []chain.Block {
	h := n.Height()
	out := make([]chain.Block, 0, h)
	for i := uint64(1); i <= h; i++ {
		blk, ok := n.BlockAt(i)
		if !ok {
			break
		}
		out = append(out, blk)
	}
	return out
}

// catchUp has the fresh follower import the miner's chain over loopback
// HTTP with the staged importer, then checks that both agree on the head
// and the state.
func (b *bench) catchUp(r *rig, p *pass) error {
	ctx, cancel := context.WithDeadline(context.Background(), b.deadline)
	defer cancel()
	hc := oneConn()
	defer hc.CloseIdleConnections()
	head := r.miner.Head().Header

	// Note when the follower reaches each height, to rate each quarter
	// of the catch-up separately.
	reached := make([]time.Time, head.Number+1)
	stopPoll, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for seen := uint64(0); ; {
			select {
			case <-stopPoll:
				return
			case now := <-tick.C:
				for h := r.follower.Height(); seen < h; {
					seen++
					reached[seen] = now
				}
			}
		}
	}()
	id := b.rec.begin("cluster.SyncWith", head.Number, 0)
	start := time.Now()
	_, err := cluster.SyncWith(ctx, r.follower, cluster.NewPeer(r.url, hc), importer.Config{})
	end := time.Now()
	b.rec.end(id)
	close(stopPoll)
	<-polled
	if err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	reached[0] = start
	p.importTPS = append(p.importTPS, quarterRate(chainOf(r.miner), reached, end))

	fh := r.follower.Head().Header
	if fh.Hash() != head.Hash() {
		return fmt.Errorf("check: follower head %d %s != miner head %d %s",
			fh.Number, fh.Hash().Short(), head.Number, head.Hash().Short())
	}
	mroot, err := r.w.World.StateRoot()
	if err != nil {
		return err
	}
	froot, err := r.fworld.StateRoot()
	if err != nil {
		return err
	}
	if froot != mroot || mroot != head.StateRoot {
		return fmt.Errorf("check: state roots differ: follower %s, miner %s, head %s",
			froot.Short(), mroot.Short(), head.StateRoot.Short())
	}
	return nil
}

// quarterRate splits a catch-up into equal height ranges and returns the
// median of their rates in tx/s. reached[h] is when the follower reached
// height h (zero if the poller missed it; end is used then).
func quarterRate(blocks []chain.Block, reached []time.Time, end time.Time) float64 {
	at := func(h int) time.Time {
		if reached[h].IsZero() {
			return end
		}
		return reached[h]
	}
	var rates []float64
	for q := 0; q < importQuarters; q++ {
		lo, hi := q*len(blocks)/importQuarters, (q+1)*len(blocks)/importQuarters
		txs := 0
		for _, blk := range blocks[lo:hi] {
			txs += len(blk.Calls)
		}
		if took := at(hi).Sub(at(lo)); took > 0 && hi > lo {
			rates = append(rates, float64(txs)/took.Seconds())
		}
	}
	if len(rates) == 0 { // too fast for the poller to split
		txs := 0
		for _, blk := range blocks {
			txs += len(blk.Calls)
		}
		return float64(txs) / end.Sub(reached[0]).Seconds()
	}
	return median(rates)
}

// setupOnly times extra set-ups (for the set-up median) without running
// anything on them.
func (b *bench) setupOnly(p *pass, n int) error {
	for i := 0; i < n; i++ {
		goruntime.GC()
		start := time.Now()
		r, err := b.newRig(0)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: set-up %.3fs\n", p.setups[len(p.setups)-1])
		if err := r.close(); err != nil {
			return err
		}
	}
	return nil
}

// openLoop offers the workload's transactions at a fixed rate on one SDK
// connection for openShare of window, collects receipts from one /v1/subscribe
// stream, and mines with one loop that calls MineOne whenever the pool is
// non-empty. Then the follower catches up.
func (b *bench) openLoop(p *pass, window time.Duration, setups int, keep bool) error {
	if err := b.setupOnly(p, setups-1); err != nil {
		return err
	}
	goruntime.GC()
	start := time.Now()
	r, err := b.newRig(0)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	p.setups = append(p.setups, time.Since(start).Seconds())
	err = b.offer(r, p, time.Duration(float64(window)*openShare))
	if err == nil {
		err = b.catchUp(r, p)
	}
	if err == nil && keep {
		p.replay = &replayInput{blocks: chainOf(r.miner)}
	}
	return errors.Join(err, r.close())
}

// receiptLog is the subscriber's record: when each tx's receipt arrived.
type receiptLog struct {
	mu      sync.Mutex
	index   map[string]int // tx ID → position in the offered sequence
	arrived []time.Time
	height  []uint64 // block that holds each tx
	count   int
	err     error // first check failure or stream error
	done    chan struct{}
}

func (l *receiptLog) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

func (l *receiptLog) record(ev wire.Event, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rc := range ev.Receipts {
		i, ok := l.index[rc.ID]
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("check: receipt for unknown tx %s", rc.ID)
		case !l.arrived[i].IsZero():
			err = fmt.Errorf("check: second receipt for tx %d", i)
		case rc.Status != wire.StatusCommitted && rc.Status != wire.StatusAborted:
			err = fmt.Errorf("check: tx %d has receipt status %q", i, rc.Status)
		}
		if err != nil {
			if l.err == nil {
				l.err = err
			}
			continue
		}
		l.arrived[i] = now
		l.height[i] = ev.Block.Number
		l.count++
	}
}

func (l *receiptLog) received() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// offer runs the open loop on r for window.
func (b *bench) offer(r *rig, p *pass, window time.Duration) error {
	n := min(int(b.spec.rate*window.Seconds()), len(r.w.Calls))
	calls := r.w.Calls[:n]
	period := time.Duration(float64(time.Second) / b.spec.rate)
	rl := &receiptLog{index: make(map[string]int, n), arrived: make([]time.Time, n),
		height: make([]uint64, n), done: make(chan struct{})}
	for i, c := range calls {
		rl.index[wire.TxIDOf(c).String()] = i
	}

	ctx, cancel := context.WithDeadline(context.Background(), b.deadline)
	defer cancel()
	subHC := oneConn()
	defer subHC.CloseIdleConnections()
	stream, err := client.New(r.url, client.WithHTTPClient(subHC)).Subscribe(ctx)
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	var closing atomic.Bool
	go func() {
		defer close(rl.done)
		for {
			ev, err := stream.Next()
			if err != nil {
				if !closing.Load() {
					// A dropped (lagging) subscriber is a benchmark error,
					// not a gap in the samples.
					rl.fail(fmt.Errorf("event stream: %w", err))
				}
				return
			}
			rl.record(ev, time.Now())
		}
	}()

	stop := make(chan struct{})
	minerDone := make(chan struct{})
	var blockEnds []time.Time // when each block became durable
	var backlogMax atomic.Int64
	go func() {
		defer close(minerDone)
		blockEnds = b.mineWhilePending(r, p, stop, &backlogMax)
	}()

	submitHC := oneConn()
	defer submitHC.CloseIdleConnections()
	sc := client.New(r.url, client.WithHTTPClient(submitHC), client.WithRetry(client.NoRetry))
	due := make([]time.Time, n)
	spans := make([]int, n)
	accepted := 0
	t0 := time.Now()
	for i, c := range calls {
		due[i] = t0.Add(time.Duration(i) * period)
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		p.late = max(p.late, time.Since(due[i]))
		spans[i] = b.rec.begin("client.SubmitCall", 0, 0)
		t := time.Now()
		_, err := sc.SubmitCall(ctx, c)
		p.submits = append(p.submits, time.Since(t))
		b.rec.end(spans[i])
		if err != nil {
			p.refused++
			continue
		}
		accepted++
	}
	p.attempted += n

	// Wait for the receipts of every accepted tx, bounded by a grace
	// period; a tx still without one then counts as failed.
	grace := time.Now().Add(10 * time.Second)
	for rl.received() < accepted && time.Now().Before(grace) && time.Now().Before(b.deadline) {
		select {
		case <-minerDone:
			grace = time.Now() // livelocked: stop waiting
		case <-rl.done:
			grace = time.Now()
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	<-minerDone
	closing.Store(true)
	stream.Close()
	<-rl.done

	if rl.err != nil {
		return rl.err
	}
	p.backlogMax = max(p.backlogMax, int(backlogMax.Load()))
	last := t0
	windows := make([]samples, openWindows)
	for i, at := range rl.arrived {
		if at.IsZero() {
			continue
		}
		w := i * openWindows / n
		windows[w] = append(windows[w], at.Sub(due[i]))
		b.rec.setTrace(spans[i], rl.height[i])
		if at.After(last) {
			last = at
		}
	}
	got := rl.received()
	p.confirms = append(p.confirms, windows...)
	bw := make([]samples, openWindows)
	first := len(p.blockTimes) - len(blockEnds)
	for i, at := range blockEnds {
		w := min(max(int(at.Sub(t0)*openWindows/window), 0), openWindows-1)
		bw[w] = append(bw[w], p.blockTimes[first+i])
	}
	p.blockWindows = append(p.blockWindows, bw...)
	p.mineTPS = append(p.mineTPS, ratio(float64(got), last.Sub(t0).Seconds()))
	p.failed += n - got
	return nil
}

// mineWhilePending is the open loop's miner: it calls MineOne whenever
// the pool is non-empty, until stop closes or a block livelocks. It
// returns when each durable block was done.
func (b *bench) mineWhilePending(r *rig, p *pass, stop <-chan struct{}, backlogMax *atomic.Int64) []time.Time {
	var ends []time.Time
	for {
		select {
		case <-stop:
			return ends
		default:
		}
		pending := r.miner.PoolLen()
		if pending == 0 {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if int64(pending) > backlogMax.Load() {
			backlogMax.Store(int64(pending))
		}
		_, took, ok := b.mineBlock(r, p)
		if !ok {
			return ends
		}
		p.blockTimes = append(p.blockTimes, took)
		ends = append(ends, time.Now())
	}
}

// mineBlock calls MineOne until it yields a durable block and returns
// the block with the wall time spent on it, failed attempts included.
// ok is false when the block livelocked: maxAttemptsPerBlock attempts
// failed, or the run's deadline passed.
func (b *bench) mineBlock(r *rig, p *pass) (blk chain.Block, took time.Duration, ok bool) {
	start := time.Now()
	for attempt := 0; attempt < b.maxAttempts && time.Now().Before(b.deadline); attempt++ {
		id := b.rec.begin("node.MineOne", r.miner.Height()+1, 0)
		blk, err := r.miner.MineOne(blockSize)
		b.rec.end(id)
		p.mineAttempts++
		if err == nil {
			return blk, time.Since(start), true
		}
		p.mineFails++
	}
	p.livelocked = true
	fmt.Fprintf(os.Stderr, "perfbench: block %d livelocked; ending the run\n", r.miner.Height()+1)
	return chain.Block{}, 0, false
}
