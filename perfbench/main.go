// Command perfbench is the repository's wall-clock benchmark: it drives the
// production node (node.New at the nodesrv defaults: speculative engine,
// 3 workers, WAL fsync every block, pipeline depth 1) on real OS threads
// through one named workload, checks that the outputs are correct, and
// prints one JSON result as the last line of standard output.
//
//	perfbench --workload mixed-lowconf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run (see trace.go), and the
// spans are written under --workdir. Any failed check exits nonzero and
// prints no result. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

// hardLimit bounds a whole run: a hang in the program under test must end
// the benchmark with an error, never stall the caller.
const hardLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for node data and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the one-line JSON the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, seconds int, traced bool, workdir string) error {
	s, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; aborting\n", hardLimit)
		os.Exit(2)
	})
	defer watchdog.Stop()
	res, err := runSpec(s, seed, time.Duration(seconds)*time.Second, traced, workdir)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	printSummary(res)
	fmt.Println(string(line))
	return nil
}

// runSpec runs workload s once, measuring for window, and returns the
// result only if every correctness check passed.
func runSpec(s spec, seed int64, window time.Duration, traced bool, workdir string) (result, error) {
	goruntime.GOMAXPROCS(goruntime.NumCPU())
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, fmt.Errorf("work dir: %w", err)
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return result{}, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d window=%v trace=%v GOMAXPROCS=%d\n",
		s.name, seed, window, traced, goruntime.GOMAXPROCS(0))
	b := &bench{spec: s, seed: seed, dir: dir, deadline: time.Now().Add(hardLimit - 10*time.Second),
		maxAttempts: maxAttemptsPerBlock}
	if traced {
		return b.tracedRun(window, filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, seed)))
	}
	return b.untracedRun(window)
}

// printSummary writes the metrics one per line to standard error, so a
// person running the benchmark reads them without parsing JSON.
func printSummary(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d\n", res.Attempted, res.Failed)
}
