// Command perfbench is the repository's benchmark. It generates the paper's
// query workload with kgsynth, runs one named workload against the gqbe
// engine or the gqbed HTTP handler, checks every answer, and prints one JSON
// result line as the last line of its standard output.
//
// Workloads (see README.md for why each exists):
//
//   - paper-cold: the 28 paper queries, one example tuple each, K=25, W=1,
//     one caller in a closed loop through gqbe.Engine.QueryCtx;
//   - two-tuple: the same queries with two example tuples each through
//     QueryMultiCtx, K=25, W=2;
//   - serve-zipf: gqbed's handler on a loopback listener, driven by an open
//     loop of Zipf-distributed single-tuple requests at three fixed rates.
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// replays the workload through the pipeline's stage functions and prints the
// per-layer metrics, writing its spans under .bench_build/perfbench/spans.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload two-tuple --update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// Fixed workload parameters shared by every workload.
const (
	// topK is the answer count every query asks for.
	topK = 25
	// graphSeed is the kgsynth seed of the graphs and query tables. It is
	// fixed because the workload's cost depends on the graph tenfold (see
	// README.md); the goldens are recorded for it.
	graphSeed = 42
	// opDeadline bounds one engine query or HTTP request. The slowest
	// successful operation (paper-cold D3) takes about 10 s, so gqbed's 10 s
	// default would make it flap between pass and fail.
	opDeadline = 60 * time.Second
	// rssCeiling is the heap-ceiling watchdog's limit: an operation whose
	// process RSS crosses it is canceled and counted as failed with reason
	// "memory". The largest successful peak is about 3.3 GB; the 2-core
	// host has 8 GB.
	rssCeiling = 4 << 30
	// outDir holds generated inputs, span files and the build (run.sh).
	outDir = ".bench_build/perfbench"
	// goldenPath is where --update-golden writes, relative to the
	// repository root.
	goldenPath = "perfbench/golden.json"
)

type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	updateGold bool
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper-cold, two-tuple or serve-zipf")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: query order, key permutation and arrival times")
	flag.IntVar(&cfg.seconds, "seconds", 30, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0 prints end-to-end metrics, 1 runs the traced replay and prints per-layer metrics")
	flag.BoolVar(&cfg.updateGold, "update-golden", false, "record this run's answers as the workload's goldens instead of checking them")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper-cold, two-tuple or serve-zipf)\n", cfg.workload)
		return 2
	}

	b, err := newBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer b.cleanup()
	metrics, err := runner(b)
	if err == nil && cfg.trace {
		err = b.spans.write(b.spanPath())
	}
	if err == nil && cfg.updateGold {
		err = b.saveGolden()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.failed > 0 {
		logf("%d of %d operations failed, by reason: %v", b.failed, b.attempted, b.reasons)
	}
	line, err := json.Marshal(result{
		Correct:   b.correct,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workloads maps each workload name to its runner. A runner returns the
// end-to-end metrics, or the per-layer metrics when the bench is traced.
var workloads = map[string]func(*bench) (map[string]metric, error){
	"paper-cold": func(b *bench) (map[string]metric, error) { return b.engineWorkload(false, 1) },
	"two-tuple":  func(b *bench) (map[string]metric, error) { return b.engineWorkload(true, 2) },
	"serve-zipf": func(b *bench) (map[string]metric, error) { return b.serveWorkload() },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
