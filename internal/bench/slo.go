package bench

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"

	"contractstm/internal/api"
	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/mempool"
	"contractstm/internal/miner"
	"contractstm/internal/node"
	rt "contractstm/internal/runtime"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

func engineOptions(workers int) engine.Options {
	return engine.Options{Workers: workers}
}

// mineOnce executes one block production run on the deterministic
// simulated runtime; wall-clock time and allocations are what the SLO
// sweep measures, the virtual makespan is ignored.
func mineOnce(eng engine.Engine, wl *workload.Workload, parent chain.Header, opts engine.Options) (miner.Result, error) {
	return miner.Mine(eng, rt.NewSimRunner(), wl.World, parent, wl.Calls, opts)
}

// mineRepresentative seals the block the codec metrics encode and decode.
func mineRepresentative(p workload.Params, workers int) (chain.Block, error) {
	wl, err := workload.Generate(p)
	if err != nil {
		return chain.Block{}, fmt.Errorf("bench: generate: %w", err)
	}
	eng, err := engine.New(engine.KindOCC)
	if err != nil {
		return chain.Block{}, fmt.Errorf("bench: %w", err)
	}
	parent := chain.GenesisHeader(types.HashString("slo-genesis"))
	res, err := mineOnce(eng, wl, parent, engineOptions(workers))
	if err != nil {
		return chain.Block{}, fmt.Errorf("bench: representative block: %w", err)
	}
	return res.Block, nil
}

// SLOConfig tunes the hot-path SLO sweep. The defaults are what CI runs,
// so changing them invalidates bench/slo_thresholds.json.
type SLOConfig struct {
	// BlockSize is the number of transactions in the representative block.
	BlockSize int
	// ConflictPercent is the representative block's contention level.
	ConflictPercent int
	// Workers is the engine pool size.
	Workers int
	// Seed fixes workload generation so every run measures the same block.
	Seed int64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.BlockSize <= 0 {
		c.BlockSize = 128
	}
	if c.ConflictPercent <= 0 {
		c.ConflictPercent = 30
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// HotpathMetric is one measured hot-path operation.
type HotpathMetric struct {
	// Name identifies the operation, e.g. "codec/block/encode/flat" or
	// "engine/occ/mine".
	Name string `json:"name"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from the Go allocation counters.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// OpsPerSec is 1e9/NsPerOp — blocks/s for engine metrics.
	OpsPerSec float64 `json:"ops_per_sec"`
}

// HotpathReport is the BENCH_hotpath.json artifact: the measured hot-path
// metrics for one configuration, compared by cmd/perfci against
// bench/slo_thresholds.json.
type HotpathReport struct {
	GoVersion       string          `json:"go_version"`
	GOMAXPROCS      int             `json:"gomaxprocs"`
	BlockSize       int             `json:"block_size"`
	ConflictPercent int             `json:"conflict_percent"`
	Workers         int             `json:"workers"`
	WireBytesFlat   int             `json:"wire_bytes_flat"`
	WireBytesGob    int             `json:"wire_bytes_gob"`
	Metrics         []HotpathMetric `json:"metrics"`
}

// Metric returns the named metric, if present.
func (r HotpathReport) Metric(name string) (HotpathMetric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return HotpathMetric{}, false
}

func metricOf(name string, br testing.BenchmarkResult) HotpathMetric {
	m := HotpathMetric{
		Name:        name,
		NsPerOp:     float64(br.NsPerOp()),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if m.NsPerOp > 0 {
		m.OpsPerSec = 1e9 / m.NsPerOp
	}
	return m
}

// marshalGob and unmarshalGob are the stdlib yardstick the flat codec's
// ratio gates compare against: encoding/gob over the same chain.Block,
// with the decode verifying commitments as chain.UnmarshalBlock does.
// Nothing else in the repository encodes gob.
func marshalGob(b chain.Block) ([]byte, error) {
	registerGobArgs()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func unmarshalGob(data []byte) (chain.Block, error) {
	registerGobArgs()
	var b chain.Block
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return chain.Block{}, err
	}
	return b, chain.VerifyCommitments(b)
}

// registerGobArgs registers the call-argument kinds gob meets inside
// Call.Args' interface values.
var registerGobArgs = sync.OnceFunc(func() {
	for _, v := range []any{uint64(0), int(0), false, "", types.Address{}, types.Hash{}, types.Amount(0)} {
		gob.Register(v)
	}
})

// RunSLO measures the allocation-sensitive hot paths this repo's perf lane
// guards: block wire encode/decode under the flat codec and the gob
// yardstick, and end-to-end block production per engine. Timings use
// testing.Benchmark, so each op count is auto-calibrated.
func RunSLO(cfg SLOConfig) (HotpathReport, error) {
	cfg = cfg.withDefaults()
	report := HotpathReport{
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		BlockSize:       cfg.BlockSize,
		ConflictPercent: cfg.ConflictPercent,
		Workers:         cfg.Workers,
	}

	// One representative mined block for the codec measurements: realistic
	// call/receipt/schedule/profile payloads rather than synthetic ones.
	params := workload.Params{
		Kind:            workload.KindMixed,
		Transactions:    cfg.BlockSize,
		ConflictPercent: cfg.ConflictPercent,
		Seed:            cfg.Seed,
	}
	block, err := mineRepresentative(params, cfg.Workers)
	if err != nil {
		return HotpathReport{}, err
	}

	flat, err := chain.MarshalBlock(block)
	if err != nil {
		return HotpathReport{}, fmt.Errorf("bench: flat marshal: %w", err)
	}
	gobBytes, err := marshalGob(block)
	if err != nil {
		return HotpathReport{}, fmt.Errorf("bench: gob marshal: %w", err)
	}
	report.WireBytesFlat = len(flat)
	report.WireBytesGob = len(gobBytes)

	codecBenches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"codec/block/encode/flat", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = chain.AppendBlockWire(buf[:0], block)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"codec/block/decode/flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chain.UnmarshalBlock(flat); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"codec/block/encode/gob", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := marshalGob(block); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"codec/block/decode/gob", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := unmarshalGob(gobBytes); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, cb := range codecBenches {
		report.Metrics = append(report.Metrics, metricOf(cb.name, testing.Benchmark(cb.fn)))
	}

	// End-to-end block production per engine: generate-once, reset-and-mine
	// per op, like the paper's protocol but timed in wall-clock terms.
	for _, kind := range []engine.Kind{engine.KindSerial, engine.KindSpeculative, engine.KindOCC} {
		kind := kind
		eng, err := engine.New(kind)
		if err != nil {
			return HotpathReport{}, fmt.Errorf("bench: %w", err)
		}
		wl, err := workload.Generate(params)
		if err != nil {
			return HotpathReport{}, fmt.Errorf("bench: generate: %w", err)
		}
		parent := chain.GenesisHeader(types.HashString("slo-genesis"))
		opts := engineOptions(cfg.Workers)
		name := "engine/" + kind.String() + "/mine"
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wl.Reset()
				if _, err := mineOnce(eng, wl, parent, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.Metrics = append(report.Metrics, metricOf(name, br))
	}

	// Follower import hot path: one full block validation per op — the
	// stateless phase (commitment verification + schedule-graph
	// construction) plus the stateful fork-join replay with receipt and
	// state-root checks. This is the per-block cost the staged import
	// pipeline's sequential commit stage pays, so a regression here slows
	// every follower's catch-up regardless of pipeline tuning.
	{
		wl, err := workload.Generate(params)
		if err != nil {
			return HotpathReport{}, fmt.Errorf("bench: generate: %w", err)
		}
		eng, err := engine.New(engine.KindOCC)
		if err != nil {
			return HotpathReport{}, fmt.Errorf("bench: %w", err)
		}
		parent := chain.GenesisHeader(types.HashString("slo-genesis"))
		res, err := mineOnce(eng, wl, parent, engineOptions(cfg.Workers))
		if err != nil {
			return HotpathReport{}, fmt.Errorf("bench: import block: %w", err)
		}
		vcfg := validator.Config{Workers: cfg.Workers}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wl.Reset()
				if _, err := validator.Validate(rt.NewSimRunner(), wl.World, res.Block, vcfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		report.Metrics = append(report.Metrics, metricOf("import/validate", br))
	}

	// Admission hot path: one full admission-pipeline pass per op (TxID
	// hash, dedup probe, shard insert) with permissive limits, so the
	// number isolates the pipeline rather than verdict short-circuits.
	// The pool drains outside the timer whenever the call ring wraps, so
	// occupancy — and the dedup map — stays bounded and duplicate-free.
	{
		const ring = 1 << 15
		calls := make([]contract.Call, ring)
		for i := range calls {
			calls[i] = admissionCall(uint64(i), uint64(i))
		}
		pool := mempool.New(mempool.Config{})
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i&(ring-1) == 0 {
					b.StopTimer()
					for {
						if _, err := pool.SelectBatch(txpool.PolicyFIFO, 4096); err != nil {
							break
						}
					}
					b.StartTimer()
				}
				pool.Admit(calls[i&(ring-1)], 0)
			}
		})
		report.Metrics = append(report.Metrics, metricOf("mempool/admit", br))
	}

	// Replica read hot path: one stamped-and-gated /v1/head read per op
	// through the full serving stack (mux, measure middleware, read
	// stamp, JSON encode) and the SDK, against an in-process listener —
	// the per-read CPU cost a read replica pays before wire latency.
	{
		wl, err := workload.Generate(params)
		if err != nil {
			return HotpathReport{}, fmt.Errorf("bench: generate: %w", err)
		}
		n, err := node.New(node.Config{World: wl.World, Workers: cfg.Workers, Runner: rt.NewSimRunner()})
		if err != nil {
			return HotpathReport{}, fmt.Errorf("bench: replica read node: %w", err)
		}
		srv := httptest.NewServer(n.Handler())
		c := client.New(srv.URL)
		ctx := context.Background()
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Head(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		srv.Close()
		report.Metrics = append(report.Metrics, metricOf("replica/read", br))
	}

	// Relay fan-out hot path: one broker publish fanned out to 256
	// subscribers per op, drained inline — the per-event cost of the SSE
	// relay hub's local re-fan-out, independent of socket I/O.
	{
		const fanout = 256
		broker := api.NewBrokerRetaining(api.DefaultEventReplayDepth)
		subs := make([]*api.Subscription, fanout)
		for i := range subs {
			subs[i] = broker.Subscribe(1)
		}
		ev := wire.Event{Block: wire.BlockInfoOf(block), Receipts: wire.ReceiptsOf(block)}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				broker.Publish(ev)
				for _, s := range subs {
					<-s.C
				}
			}
		})
		for _, s := range subs {
			s.Close()
		}
		report.Metrics = append(report.Metrics, metricOf("relay/fanout", br))
	}

	sort.Slice(report.Metrics, func(i, j int) bool {
		return report.Metrics[i].Name < report.Metrics[j].Name
	})
	return report, nil
}

// ReadHotpathReport decodes a BENCH_hotpath.json artifact.
func ReadHotpathReport(r io.Reader) (HotpathReport, error) {
	var report HotpathReport
	if err := json.NewDecoder(r).Decode(&report); err != nil {
		return HotpathReport{}, fmt.Errorf("bench: hotpath report: %w", err)
	}
	return report, nil
}

// WriteHotpathJSON writes the report as indented JSON (the CI artifact).
func WriteHotpathJSON(w io.Writer, r HotpathReport) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteHotpathTable prints the report for humans.
func WriteHotpathTable(w io.Writer, r HotpathReport) {
	fmt.Fprintf(w, "hot-path SLO: block=%d conflict=%d%% workers=%d %s GOMAXPROCS=%d\n",
		r.BlockSize, r.ConflictPercent, r.Workers, r.GoVersion, r.GOMAXPROCS)
	fmt.Fprintf(w, "wire bytes: flat=%d gob=%d (%.2fx)\n\n",
		r.WireBytesFlat, r.WireBytesGob, float64(r.WireBytesGob)/float64(max(r.WireBytesFlat, 1)))
	fmt.Fprintf(w, "%-28s %14s %12s %12s %12s\n", "metric", "ns/op", "B/op", "allocs/op", "ops/s")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-28s %14.0f %12d %12d %12.1f\n",
			m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.OpsPerSec)
	}
}
