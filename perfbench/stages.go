package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"gqbe/internal/core"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/obs"
	"gqbe/internal/stats"
	"gqbe/internal/topk"
	"gqbe/internal/triples"
)

// stageEngine holds what the traced replay calls the pipeline stages with:
// a core engine built from the workload's files and the label statistics
// core keeps privately, rebuilt with stats.New over the same store.
type stageEngine struct {
	eng   *core.Engine
	stats *stats.Stats
}

// setupLayers times the offline layers on one dataset — triples parsing,
// store and statistics construction, and the heap snapshot load — and
// returns a stage engine built from the TSV file.
func setupLayers(d *dataset, t *layerTotals) (*stageEngine, error) {
	var eng *core.Engine
	var parse, build []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		g, err := triples.LoadGraphFile(d.tsv)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", d.tsv, err)
		}
		t1 := time.Now()
		eng = core.NewEngine(g)
		build = append(build, time.Since(t1))
		parse = append(parse, t1.Sub(t0))
	}
	load, err := medianTime(setupReps, setupMinTotal, func() error {
		_, err := core.LoadSnapshotFile(d.snap)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.parse += median(parse)
	t.build += median(build)
	t.snapLoad += load
	return &stageEngine{eng: eng, stats: stats.New(eng.Store())}, nil
}

// Setup repetitions: every setup time is the median of at least setupReps
// calls spanning at least setupMinTotal.
const (
	setupReps     = 5
	setupMinTotal = 300 * time.Millisecond
)

// stageRun is one query replayed through the stage functions.
type stageRun struct {
	ans answers
	res *topk.Result
	layerSample
}

// layerSample is what one replayed query adds to the per-layer totals.
type layerSample struct {
	neighborhood, discover, merge, lattice, search time.Duration
	edges, minimalTrees                            int64
	evalMicros, skippedMicros, rows                int64
	allocBytes                                     uint64
}

// layerTotals sums layer samples over a pass's successful queries, plus the
// setup layers timed by setupLayers.
type layerTotals struct {
	parse, build, snapLoad time.Duration
	layerSample
	evaluated, nulls, pruned, recomputes, skips, proven int64
	// coordinator is Σ(search − eval) over the W=1 replay.
	coordinator time.Duration
}

func (t *layerTotals) add(r *stageRun) {
	s := &t.layerSample
	s.neighborhood += r.neighborhood
	s.discover += r.discover
	s.merge += r.merge
	s.lattice += r.lattice
	s.search += r.search
	s.edges += r.edges
	s.minimalTrees += r.minimalTrees
	s.evalMicros += r.evalMicros
	s.skippedMicros += r.skippedMicros
	s.rows += r.rows
	s.allocBytes += r.allocBytes
	t.evaluated += int64(r.res.NodesEvaluated)
	t.nulls += int64(r.res.NullNodes)
	t.pruned += int64(r.res.NodesPruned)
	t.recomputes += int64(r.res.FrontierRecomputes)
	t.skips += int64(r.res.RowBudgetSkips)
	if r.res.Stopped == topk.StopProven {
		t.proven++
	}
}

// runStages replays one query through neighborhood.ExtractCtx →
// mqg.DiscoverCtx → [mqg.MergeCtx] → lattice.NewCtx → topk.SearchCtx with
// the options and exclude list core would use, an obs tracer attached to
// the search, and a benchmark span around every call.
func (b *bench) runStages(ctx context.Context, trace string, se *stageEngine, names [][]string, w int) (*stageRun, error) {
	opts := core.Options{K: topK}.Normalize()
	g := se.eng.Graph()
	tuples := make([][]graph.NodeID, len(names))
	for i, row := range names {
		tuples[i] = make([]graph.NodeID, len(row))
		for j, n := range row {
			id, ok := g.Node(n)
			if !ok {
				return nil, fmt.Errorf("entity %q not in graph", n)
			}
			tuples[i][j] = id
		}
	}
	sl := &b.spans
	root := sl.open(trace, 0, "query")
	defer sl.end(root, nil)
	r := &stageRun{}
	mqgs := make([]*mqg.MQG, 0, len(tuples))
	for _, t := range tuples {
		id := sl.open(trace, root, "neighborhood.ExtractCtx")
		nres, err := neighborhood.ExtractCtx(ctx, g, t, opts.Depth)
		if err != nil {
			sl.end(id, nil)
			return nil, err
		}
		r.neighborhood += sl.end(id, map[string]int64{"edges": int64(len(nres.Ht.Edges)), "reduced_edges": int64(len(nres.Reduced.Edges))})
		r.edges += int64(len(nres.Ht.Edges))

		id = sl.open(trace, root, "mqg.DiscoverCtx")
		m, err := mqg.DiscoverCtx(ctx, se.stats, nres.Reduced, t, opts.MQGSize)
		nres.Release()
		if err != nil {
			sl.end(id, nil)
			return nil, err
		}
		r.discover += sl.end(id, map[string]int64{"mqg_edges": int64(len(m.Sub.Edges))})
		mqgs = append(mqgs, m)
	}
	m := mqgs[0]
	if len(mqgs) > 1 {
		id := sl.open(trace, root, "mqg.MergeCtx")
		var err error
		m, err = mqg.MergeCtx(ctx, mqgs, opts.MQGSize)
		if err != nil {
			sl.end(id, nil)
			return nil, err
		}
		r.merge = sl.end(id, map[string]int64{"mqg_edges": int64(len(m.Sub.Edges))})
	}

	id := sl.open(trace, root, "lattice.NewCtx")
	lat, err := lattice.NewCtx(ctx, m)
	if err != nil {
		sl.end(id, nil)
		return nil, err
	}
	r.minimalTrees = int64(len(lat.MinimalTrees()))
	r.lattice = sl.end(id, map[string]int64{"minimal_trees": r.minimalTrees})

	tr := obs.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id = sl.open(trace, root, "topk.SearchCtx")
	res, err := topk.SearchCtx(ctx, se.eng.Store(), lat, tuples, topk.Options{
		K:              opts.K,
		KPrime:         opts.KPrime,
		MaxRows:        opts.MaxRows,
		MaxEvaluations: opts.MaxEvaluations,
		Parallelism:    w,
		Tracer:         tr,
	})
	r.search = sl.end(id, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	for _, e := range tr.NodeEvals() {
		r.evalMicros += e.EvalMicros
		r.rows += int64(e.Rows)
		if e.Skipped {
			r.skippedMicros += e.EvalMicros
		}
	}
	sl.spans[id-1].Attrs = map[string]int64{
		"nodes_evaluated":  int64(res.NodesEvaluated),
		"null_nodes":       int64(res.NullNodes),
		"row_budget_skips": int64(res.RowBudgetSkips),
		"eval_us":          r.evalMicros,
		"rows":             r.rows,
		"alloc_bytes":      int64(r.allocBytes),
	}
	r.res = res
	r.ans = answers{Stopped: string(res.Stopped)}
	for _, a := range res.Answers {
		r.ans.Names = append(r.ans.Names, se.eng.AnswerNames(a))
		r.ans.Scores = append(r.ans.Scores, math.Float64bits(a.Score))
	}
	return r, nil
}

// counterDiff compares the deterministic search counters of two replays of
// one query; they must agree at any Parallelism.
func counterDiff(a, want *topk.Result) error {
	type counters struct {
		Evaluated, Nulls, Generated, Pruned, Recomputes, Skips, Seen int
		Stopped                                                      topk.StopReason
	}
	c := func(r *topk.Result) counters {
		return counters{r.NodesEvaluated, r.NullNodes, r.NodesGenerated, r.NodesPruned,
			r.FrontierRecomputes, r.RowBudgetSkips, r.TuplesSeen, r.Stopped}
	}
	if c(a) != c(want) {
		return fmt.Errorf("counters %+v, want %+v", c(a), c(want))
	}
	return nil
}

// layerMetrics renders per-layer totals. Times are summed over the
// replay's successful queries.
func layerMetrics(t *layerTotals, w int) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	put("triples.parse_ms", ms(t.parse), "ms")
	put("storage.build_ms", ms(t.build), "ms")
	put("snapio.load_ms", ms(t.snapLoad), "ms")
	put("neighborhood.ms", ms(t.neighborhood), "ms")
	put("neighborhood.edges", float64(t.edges), "count")
	put("mqg.discover_ms", ms(t.discover), "ms")
	put("mqg.merge_ms", ms(t.merge), "ms")
	put("lattice.build_ms", ms(t.lattice), "ms")
	put("lattice.minimal_trees", float64(t.minimalTrees), "count")
	put("topk.search_ms", ms(t.search), "ms")
	put("exec.eval_ms", float64(t.evalMicros)/1e3, "ms")
	put("exec.rows", float64(t.rows), "count")
	put("exec.skipped_ms", float64(t.skippedMicros)/1e3, "ms")
	put("topk.row_budget_skips", float64(t.skips), "count")
	put("topk.coordinator_ms", ms(t.coordinator), "ms")
	put("topk.alloc_mb", float64(t.allocBytes)/(1<<20), "MB")
	busy := 0.0
	if t.search > 0 {
		busy = float64(t.evalMicros) / 1e3 / (float64(w) * ms(t.search))
	}
	put("topk.worker_busy", busy, "share")
	put("topk.nodes_evaluated", float64(t.evaluated), "count")
	put("topk.null_nodes", float64(t.nulls), "count")
	put("topk.nodes_pruned", float64(t.pruned), "count")
	put("topk.frontier_recomputes", float64(t.recomputes), "count")
	put("topk.proven", float64(t.proven), "count")
	return m
}
