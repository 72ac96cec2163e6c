package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gqbe"
	"gqbe/internal/kgsynth"
	"gqbe/internal/triples"
)

// bench holds one run's inputs, failure accounting, goldens and spans.
type bench struct {
	cfg config
	// work is this run's private directory for generated inputs; it is
	// removed when the run ends.
	work string
	rng  *rand.Rand
	// attempted/failed count operations; correct drops to false on the
	// first wrong answer or failed cross-check.
	attempted int
	failed    int
	correct   bool
	reasons   map[string]int
	golden    goldenFile
	spans     spanLog
}

func newBench(cfg config) (*bench, error) {
	work := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	b := &bench{
		cfg:     cfg,
		work:    work,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		correct: true,
		reasons: map[string]int{},
	}
	if err := b.loadGolden(); err != nil {
		b.cleanup()
		return nil, err
	}
	return b, nil
}

func (b *bench) cleanup() { _ = os.RemoveAll(b.work) }

func (b *bench) spanPath() string {
	return filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", b.cfg.workload, b.cfg.seed))
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// fail records one failed operation with its reason.
func (b *bench) fail(op, reason, detail string) {
	b.failed++
	b.reasons[reason]++
	if reason == "wrong-answer" {
		b.correct = false
	}
	logf("FAIL %s %s: %s", op, reason, detail)
}

// checkFailed marks the run incorrect when a cross-check between two
// measured paths disagrees.
func (b *bench) checkFailed(what string, err error) {
	b.correct = false
	logf("CHECK %s: %v", what, err)
}

// dataset is one generated graph with its input files.
type dataset struct {
	kg   *kgsynth.Dataset
	tsv  string
	snap string
}

// generate writes the named kgsynth graphs ("freebase", "dbpedia") as TSV
// triples and as snapshots into the run's work directory. The program under
// test only ever sees these files and the query tuples.
func (b *bench) generate(names ...string) ([]*dataset, error) {
	var out []*dataset
	for _, name := range names {
		cfg := kgsynth.Config{Seed: graphSeed}
		var kg *kgsynth.Dataset
		switch name {
		case "freebase":
			kg = kgsynth.Freebase(cfg)
		case "dbpedia":
			kg = kgsynth.DBpedia(cfg)
		}
		d := &dataset{
			kg:   kg,
			tsv:  filepath.Join(b.work, name+".tsv"),
			snap: filepath.Join(b.work, name+".snap"),
		}
		if err := triples.WriteStreamFile(d.tsv, kg.Graph); err != nil {
			return nil, fmt.Errorf("writing %s: %w", d.tsv, err)
		}
		eng, err := gqbe.LoadFile(d.tsv)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", d.tsv, err)
		}
		if err := eng.WriteSnapshotFile(d.snap); err != nil {
			return nil, fmt.Errorf("writing %s: %w", d.snap, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// medianTime runs fn at least minReps times and until minTotal has
// elapsed, with a collection before each call so no call pays for its
// predecessor's garbage, and returns the median call time.
func medianTime(minReps int, minTotal time.Duration, fn func() error) (time.Duration, error) {
	var times []time.Duration
	var total time.Duration
	for len(times) < minReps || total < minTotal {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		times = append(times, d)
		total += d
	}
	return median(times), nil
}

// median is the median of xs (the mean of the middle two for even counts).
func median[T time.Duration | float64](xs []T) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// op is one measured operation: a query or an HTTP request.
type op struct {
	id      string
	latency time.Duration
	peak    int64 // RSS high-water mark during the operation, bytes
	ok      bool
	ans     answers
}

// measure runs fn as one operation under the deadline and the heap-ceiling
// watchdog, with the RSS high-water mark reset before it. A failure is
// recorded with its reason; check, when non-nil, then validates the answers
// of a successful operation.
func (b *bench) measure(id string, fn func(ctx context.Context) (answers, error), check func(answers) error) op {
	b.attempted++
	resetPeak()
	ctx, stop := startGuard(context.Background(), opDeadline)
	t0 := time.Now()
	ans, err := fn(ctx)
	lat := time.Since(t0)
	reason := stop()
	o := op{id: id, latency: lat, peak: peakRSS(), ans: ans}
	switch {
	case err != nil:
		if reason == "" {
			reason = "error"
			var he httpError
			if errors.As(err, &he) {
				reason = fmt.Sprintf("http-%d", he.status)
			}
		}
		b.fail(id, reason, err.Error())
	case check != nil:
		if cerr := check(ans); cerr != nil {
			b.fail(id, "wrong-answer", cerr.Error())
			return o
		}
		o.ok = true
	default:
		o.ok = true
	}
	return o
}

// hostInfo describes the machine for stderr logs.
func hostInfo() string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d NumCPU=%d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}
