package main

import (
	"context"
	"fmt"
	"time"

	"gqbe"
)

// engineOp is one paper query: its ID, the graph it runs on and its example
// tuples (Table[0], plus Table[1] on two-tuple).
type engineOp struct {
	id     string
	graph  int
	tuples [][]string
}

// engineWorkload runs paper-cold (multi=false, W=1) or two-tuple (multi=true,
// W=2): all 28 paper queries, F1–F20 on the Freebase-like graph and D1–D8 on
// the DBpedia-like one, in a seeded order, one at a time.
func (b *bench) engineWorkload(multi bool, w int) (map[string]metric, error) {
	sets, err := b.generate("freebase", "dbpedia")
	if err != nil {
		return nil, err
	}
	var engs []*gqbe.Engine
	setup, err := medianTime(setupReps, setupMinTotal, func() error {
		engs = engs[:0]
		for _, d := range sets {
			e, err := gqbe.LoadFile(d.tsv)
			if err != nil {
				return fmt.Errorf("loading %s: %w", d.tsv, err)
			}
			engs = append(engs, e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ops []engineOp
	for gi, d := range sets {
		for _, q := range d.kg.Queries {
			n := 1
			if multi {
				n = 2
			}
			ops = append(ops, engineOp{id: q.ID, graph: gi, tuples: q.Table[:n]})
		}
	}
	b.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	logf("%s: %d queries, W=%d, setup %.1f ms, %s", b.cfg.workload, len(ops), w, ms(setup), hostInfo())

	if b.cfg.trace {
		return b.engineTraced(sets, engs, ops, w)
	}
	// Whole passes run while the next one, taking as long as the last,
	// still ends within --seconds; the first always runs.
	var passes [][]op
	budget := time.Duration(b.cfg.seconds) * time.Second
	start := time.Now()
	for last := time.Duration(0); len(passes) == 0 || time.Since(start)+last <= budget; {
		t0 := time.Now()
		passes = append(passes, b.enginePass(engs, ops, w, b.goldenCheck(ops)))
		last = time.Since(t0)
	}
	return engineMetrics(setup, passes), nil
}

// enginePass runs every op once through the public engine API and checks
// each answer list with check.
func (b *bench) enginePass(engs []*gqbe.Engine, ops []engineOp, w int, check func(i int, a answers) error) []op {
	out := make([]op, 0, len(ops))
	for i, q := range ops {
		i, q := i, q
		eng := engs[q.graph]
		o := b.measure(q.id, func(ctx context.Context) (answers, error) {
			opts := &gqbe.Options{K: topK, Parallelism: w}
			var res *gqbe.Result
			var err error
			if len(q.tuples) == 1 {
				res, err = eng.QueryCtx(ctx, q.tuples[0], opts)
			} else {
				res, err = eng.QueryMultiCtx(ctx, q.tuples, opts)
			}
			if err != nil {
				return answers{}, err
			}
			return fromResult(res), nil
		}, func(a answers) error { return check(i, a) })
		logf("  %-4s %10.1f ms  peak %5d MB  ok=%v", q.id, ms(o.latency), o.peak>>20, o.ok)
		out = append(out, o)
	}
	return out
}

// goldenCheck checks the answers of ops[i] against the query's golden.
func (b *bench) goldenCheck(ops []engineOp) func(int, answers) error {
	return func(i int, a answers) error { return b.checkQuery(ops[i].id, a) }
}

// engineMetrics reduces the passes to the end-to-end metrics. A closed loop
// with one caller has a single load level and its unit of work is the pass:
// the low/mid/high latencies are all the median pass wall time (the
// per-query latencies, a median of 28 very unequal queries, swing by a
// third between runs), and slo_qps is the queries completed per second.
func engineMetrics(setup time.Duration, passes [][]op) map[string]metric {
	var totals, qps []float64
	var peak int64
	attempted, ok := 0, 0
	for _, p := range passes {
		var total time.Duration
		n := 0
		for _, o := range p {
			attempted++
			total += o.latency
			if !o.ok {
				continue
			}
			n++
			if o.peak > peak {
				peak = o.peak
			}
		}
		ok += n
		totals = append(totals, total.Seconds())
		qps = append(qps, float64(n)/total.Seconds())
	}
	m := map[string]metric{
		"setup_s":     {setup.Seconds(), "s"},
		"total_s":     {median(totals), "s"},
		"peak_rss_mb": {float64(peak) / (1 << 20), "MB"},
		"ok_share":    {float64(ok) / float64(attempted), "share"},
		"slo_qps":     {median(qps), "1/s"},
	}
	for _, level := range rateLevels {
		m["p50_ms."+level] = metric{1e3 * median(totals), "ms"}
	}
	return m
}

// engineTraced is the traced run of an engine workload. It runs one
// untraced pass through the public API, then replays every query through
// the stage functions with tracing on and checks that the replay reproduces
// the untraced answers. On two-tuple (W=2) it also replays at W=1 and checks
// that the search counters and answers agree; the W=1 replay gives the
// coordinator time.
func (b *bench) engineTraced(sets []*dataset, engs []*gqbe.Engine, ops []engineOp, w int) (map[string]metric, error) {
	var t layerTotals
	stages := make([]*stageEngine, len(sets))
	for i, d := range sets {
		se, err := setupLayers(d, &t)
		if err != nil {
			return nil, err
		}
		stages[i] = se
	}
	untraced := b.enginePass(engs, ops, w, b.goldenCheck(ops))
	traced := b.replay(stages, ops, untraced, w, nil, &t)
	if w == 1 {
		t.coordinator = b.coordinatorTime(traced)
	} else {
		serial := b.replay(stages, ops, untraced, 1, traced, nil)
		t.coordinator = b.coordinatorTime(serial)
	}
	m := layerMetrics(&t, w)
	putServeless(m)
	m["obs.overhead"] = metric{traceOverhead(untraced, traced), "share"}
	var pass time.Duration
	for _, o := range untraced {
		pass += o.latency
	}
	for _, level := range rateLevels {
		m["p99_ms."+level] = metric{ms(pass), "ms"}
	}
	return m, nil
}

// traceOverhead is the traced replay's time over the untraced pass's,
// minus one, on the queries that succeeded in both.
func traceOverhead(untraced []op, traced []replayed) float64 {
	var plain, withTrace time.Duration
	for i, o := range untraced {
		if o.ok && traced[i].run != nil {
			plain += o.latency
			withTrace += traced[i].latency
		}
	}
	if plain == 0 {
		return 0
	}
	return withTrace.Seconds()/plain.Seconds() - 1
}

// replayed is one query of a stage replay.
type replayed struct {
	op
	run *stageRun // nil when the query failed
}

// replay runs every op through the stage functions at parallelism w. Each
// answer list must equal the untraced pass's; when counters is non-nil its
// search counters must also equal those of the same query there. Successful
// queries are added to totals when it is non-nil.
func (b *bench) replay(stages []*stageEngine, ops []engineOp, untraced []op, w int, counters []replayed, totals *layerTotals) []replayed {
	out := make([]replayed, len(ops))
	for i, q := range ops {
		q, ref := q, untraced[i]
		var run *stageRun
		o := b.measure(q.id+fmt.Sprintf("/stages-W%d", w), func(ctx context.Context) (answers, error) {
			var err error
			run, err = b.runStages(ctx, fmt.Sprintf("%s/W%d", q.id, w), stages[q.graph], q.tuples, w)
			if err != nil {
				return answers{}, err
			}
			return run.ans, nil
		}, func(a answers) error {
			if !ref.ok {
				return nil // nothing to compare with; the untraced failure is already counted
			}
			if err := a.diff(ref.ans); err != nil {
				return fmt.Errorf("stage replay differs from the untraced query: %w", err)
			}
			if counters != nil && counters[i].run != nil {
				if err := counterDiff(run.res, counters[i].run.res); err != nil {
					return fmt.Errorf("W=%d replay differs from the traced replay: %w", w, err)
				}
			}
			return nil
		})
		logf("  %-4s stages W=%d %10.1f ms  ok=%v", q.id, w, ms(o.latency), o.ok)
		out[i] = replayed{op: o}
		if o.ok {
			out[i].run = run
			if totals != nil {
				totals.add(run)
			}
		}
	}
	return out
}

// coordinatorTime is Σ(search − eval) over a W=1 replay: the search time not
// spent inside node evaluations. At W=1 eval + coordinator = search holds
// per query by construction; a negative difference would mean the tracer's
// evaluation times exceed the search's own span, so it is reported.
func (b *bench) coordinatorTime(rs []replayed) time.Duration {
	var total time.Duration
	for _, r := range rs {
		if r.run == nil {
			continue
		}
		c := r.run.search - time.Duration(r.run.evalMicros)*time.Microsecond
		if c < 0 {
			b.checkFailed(r.id, fmt.Errorf("node evaluations (%d µs) exceed the search span (%v)", r.run.evalMicros, r.run.search))
		}
		total += c
	}
	return total
}
