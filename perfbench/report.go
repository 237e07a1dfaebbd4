package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// printStateBytes reports the genesis state size before any timing, so a
// reader sees the working set the timings belong to.
func (b *bench) printStateBytes() (int, error) {
	w, err := b.spec.generate(b.inputSeed(0))
	if err != nil {
		return 0, err
	}
	enc, err := w.World.EncodeState()
	if err != nil {
		return 0, err
	}
	n := len(enc)
	fmt.Fprintf(os.Stderr, "perfbench: storage.state_bytes=%d (genesis from %d txs)\n", n, b.spec.genTxs)
	return n, nil
}

// untracedRun measures the end-to-end metrics.
func (b *bench) untracedRun(window time.Duration) (result, error) {
	if _, err := b.printStateBytes(); err != nil {
		return result{}, err
	}
	p, err := b.measure(window, setupsPerRun, false)
	if err != nil {
		return result{}, err
	}
	blockChunks := chunks(p.blockTimes, blockChunk)
	for _, w := range blockChunks {
		supported("block_ms window", len(w), 0.90)
	}
	for _, w := range p.confirms {
		supported("confirm_ms window", len(w), 0.99)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups, %d blocks, %d mine attempts (%d failed)\n",
		len(p.setups), len(p.blockTimes), p.mineAttempts, p.mineFails)
	return result{
		Correct:   true,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(p.setups), "s"},
			"mine_tps":       {median(p.mineTPS), "tx/s"},
			"block_ms_p50":   {windowMedian(p.blockWindows, 0.50), "ms"},
			"block_ms_p90":   {windowMedian(blockChunks, 0.90), "ms"},
			"import_tps":     {median(p.importTPS), "tx/s"},
			"confirm_ms_p50": {windowMedian(p.confirms, 0.50), "ms"},
			"confirm_ms_p99": {windowMedian(p.confirms, 0.99), "ms"},
			"rss_peak_mb":    {rssPeakMB(), "MB"},
		},
	}, nil
}

// tracedRun measures half the window untraced and half traced (spans
// around the benchmark's calls into the client, the node and the
// cluster), replays the traced pass's blocks through the layer entry
// points, writes the spans to spanFile and reports the per-layer metrics.
func (b *bench) tracedRun(window time.Duration, spanFile string) (result, error) {
	stateBytes, err := b.printStateBytes()
	if err != nil {
		return result{}, err
	}
	half := max(window/2, time.Second)
	plain, err := b.measure(half, 1, false)
	if err != nil {
		return result{}, err
	}
	b.rec = newRecorder()
	traced, err := b.measure(half, 1, true)
	if err != nil {
		return result{}, err
	}
	if traced.replay == nil {
		return result{}, fmt.Errorf("traced pass kept no blocks to replay")
	}
	st, err := b.replay(traced.replay)
	if err != nil {
		return result{}, err
	}
	if err := b.rec.write(spanFile); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s; replayed %d blocks\n", spanFile, st.blocks)

	rec := b.rec
	txs := float64(st.txs)
	attempts := traced.mineAttempts + plain.mineAttempts
	fails := traced.mineFails + plain.mineFails
	exec := rec.durations("engine.ExecuteBlock")
	appends := rec.durations("persist.Log.Append")
	pm := map[string]metric{
		"storage.state_root_ms_p50":   {rec.durations("storage.StateRoot").pct(0.5), "ms"},
		"storage.snapshot_ms_p50":     {rec.durations("storage.Snapshot").pct(0.5), "ms"},
		"storage.state_bytes":         {float64(stateBytes), "bytes"},
		"engine.exec_ms_p50":          {exec.pct(0.5), "ms"},
		"engine.exec_ms_p90":          {exec.pct(0.9), "ms"},
		"engine.fail_frac":            {ratio(float64(st.execFails), float64(st.execAttempts)), "fraction"},
		"engine.retries_per_tx":       {ratio(float64(st.retries), txs), "count"},
		"engine.useful_frac":          {ratio(txs, txs+float64(st.retries)), "fraction"},
		"engine.speedup_vs_serial":    {ratio(st.serialExec.Seconds(), st.specExec.Seconds()), "x"},
		"stm.waits_per_tx":            {ratio(float64(st.waits), txs), "count"},
		"stm.deadlocks_per_tx":        {ratio(float64(st.deadlocks), txs), "count"},
		"node.mine_fail_frac":         {ratio(float64(fails), float64(attempts)), "fraction"},
		"sched.edges_per_tx":          {ratio(float64(st.edges), txs), "count"},
		"sched.critical_path_frac":    {ratio(float64(st.criticalPath), txs), "fraction"},
		"validator.precheck_us_p50":   {rec.durations("validator.Precheck").pctUS(0.5), "us"},
		"validator.replay_ms_p50":     {rec.durations("validator.ValidatePrechecked").pct(0.5), "ms"},
		"validator.speedup_vs_serial": {ratio(st.validate1.Seconds(), st.validate3.Seconds()), "x"},
		"codec.decode_us_p50":         {rec.durations("chain.DecodeBlock").pctUS(0.5), "us"},
		"persist.append_ms_p50":       {appends.pct(0.5), "ms"},
		"persist.append_ms_p90":       {appends.pct(0.9), "ms"},
		"persist.fsync_ms_mean":       {ratio(ms(st.fsyncTime), float64(st.fsyncs)), "ms"},
		"persist.bytes_per_tx":        {ratio(float64(st.walBytes), txs), "bytes"},
		"codec.encode_us_p50":         {rec.durations("chain.AppendBlockWire").pctUS(0.5), "us"},
		"codec.block_bytes":           {ratio(float64(st.blockBytes), float64(st.blocks)), "bytes"},
		"chain.seal_us_p50":           {rec.durations("chain.Seal").pctUS(0.5), "us"},
		"mempool.select_us_p50":       {rec.durations("mempool.SelectBatch").pctUS(0.5), "us"},
		"api.submit_us_p50":           {traced.submits.pctUS(0.5), "us"},
		"api.submit_us_p99":           {traced.submits.pctUS(0.99), "us"},
		"api.refused_frac":            {ratio(float64(traced.refused), float64(traced.attempted)), "fraction"},
		"mempool.backlog_max":         {float64(traced.backlogMax), "count"},
		"loadgen.late_ms_max":         {ms(traced.late), "ms"},
		"node.mine_ms_p50":            {rec.durations("node.MineOne").pct(0.5), "ms"},
		"trace.overhead_frac":         {ratio(traced.blockTimes.pct(0.5), plain.blockTimes.pct(0.5)) - 1, "fraction"},
		"trace.unaccounted_frac":      {rec.selfFrac("replay.mine"), "fraction"},
	}
	return result{
		Correct:   true,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   pm,
	}, nil
}

// windowMedian is the median over windows of each window's q-quantile.
func windowMedian(windows []samples, q float64) float64 {
	v := make([]float64, 0, len(windows))
	for _, w := range windows {
		if len(w) > 0 {
			v = append(v, w.pct(q))
		}
	}
	return median(v)
}

// chunks splits s, in order, into windows of at least size samples; the
// last window takes the remainder. Fewer than 2·size samples make one
// window.
func chunks(s samples, size int) []samples {
	n := max(len(s)/size, 1)
	out := make([]samples, n)
	for i := range out {
		lo, hi := i*size, (i+1)*size
		if i == n-1 {
			hi = len(s)
		}
		out[i] = s[lo:hi]
	}
	return out
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
