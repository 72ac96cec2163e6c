package core

import (
	"context"
	"strings"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
	"gqbe/internal/lattice"
	"gqbe/internal/testkg"
	"gqbe/internal/topk"
)

func TestQueryEndToEndFig1(t *testing.T) {
	g := testkg.Fig1()
	e := NewEngine(g)
	tuple := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	res, err := e.QueryCtx(context.Background(), tuple, Options{K: 10, KPrime: 10, MQGSize: 10})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	var all []string
	for _, a := range res.Answers {
		all = append(all, strings.Join(e.AnswerNames(a), "|"))
	}
	joined := strings.Join(all, " ")
	if strings.Contains(joined, "Jerry Yang|Yahoo!") {
		t.Error("query tuple in answers")
	}
	if !strings.Contains(joined, "Steve Wozniak|Apple Inc.") {
		t.Errorf("expected Wozniak/Apple in answers: %v", all)
	}
	if res.Stats.MQGEdges == 0 || res.Stats.NodesEvaluated == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.Discovery <= 0 || res.Stats.Processing <= 0 {
		t.Errorf("timings not populated: %+v", res.Stats)
	}
}

// TestStatsRowBudgetSkips checks that Stats.RowBudgetSkips reports the
// search's own count: the row-budget case skips lattice nodes, and a direct
// topk search over the same MQG skips exactly as many.
func TestStatsRowBudgetSkips(t *testing.T) {
	g := testkg.Fig1Padded()
	e := NewEngine(g)
	tuple := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	opts := Options{K: 10, MQGSize: 10, MaxRows: 8}.Normalize()
	res, err := e.QueryCtx(context.Background(), tuple, opts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	lat, err := lattice.NewCtx(context.Background(), res.MQG)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := topk.SearchCtx(context.Background(), e.store, lat, [][]graph.NodeID{tuple},
		topk.Options{K: opts.K, KPrime: opts.KPrime, MaxRows: opts.MaxRows})
	if err != nil {
		t.Fatal(err)
	}
	if tres.RowBudgetSkips == 0 {
		t.Fatalf("fixture too small: no row-budget skips at MaxRows=%d", opts.MaxRows)
	}
	if res.Stats.RowBudgetSkips != tres.RowBudgetSkips {
		t.Errorf("Stats.RowBudgetSkips = %d, topk skipped %d", res.Stats.RowBudgetSkips, tres.RowBudgetSkips)
	}
}

func TestQueryMultiFig1(t *testing.T) {
	g := testkg.Fig1()
	e := NewEngine(g)
	t1 := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	t2 := testkg.Tuple(g, "Steve Wozniak", "Apple Inc.")
	res, err := e.QueryMultiCtx(context.Background(), [][]graph.NodeID{t1, t2}, Options{K: 10, KPrime: 10, MQGSize: 12})
	if err != nil {
		t.Fatalf("QueryMulti: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range res.Answers {
		names := strings.Join(e.AnswerNames(a), "|")
		if names == "Jerry Yang|Yahoo!" || names == "Steve Wozniak|Apple Inc." {
			t.Errorf("input tuple %s leaked into multi-tuple answers", names)
		}
	}
	if res.Stats.Merge <= 0 {
		t.Errorf("merge time not recorded: %+v", res.Stats)
	}
}

func TestQueryMultiSingleFallback(t *testing.T) {
	g := testkg.Fig1()
	e := NewEngine(g)
	t1 := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	res, err := e.QueryMultiCtx(context.Background(), [][]graph.NodeID{t1}, Options{K: 5, KPrime: 5, MQGSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Error("single-tuple fallback returned nothing")
	}
	if _, err := e.QueryMultiCtx(context.Background(), nil, Options{}); err == nil {
		t.Error("empty tuple list accepted")
	}
}

func TestQueryOnSyntheticWorkload(t *testing.T) {
	// End-to-end sanity on the F18 founders query: ground-truth founder
	// pairs must dominate the top answers.
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 11, Scale: 0.25})
	e := NewEngine(ds.Graph)
	q := ds.MustQuery("F18")
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryCtx(context.Background(), tuple, Options{K: 10})
	if err != nil {
		t.Fatalf("Query(F18): %v", err)
	}
	if len(res.Answers) < 5 {
		t.Fatalf("only %d answers", len(res.Answers))
	}
	truth := make(map[string]bool)
	for _, row := range q.GroundTruth(1) {
		truth[strings.Join(row, "|")] = true
	}
	hits := 0
	for _, a := range res.Answers {
		if truth[strings.Join(e.AnswerNames(a), "|")] {
			hits++
		}
	}
	if hits < len(res.Answers)/2 {
		t.Errorf("only %d/%d top answers in ground truth", hits, len(res.Answers))
	}
}

func TestDiscoverMQGRespectsBudget(t *testing.T) {
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 11, Scale: 0.25})
	e := NewEngine(ds.Graph)
	q := ds.MustQuery("F18")
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.DiscoverMQGCtx(context.Background(), tuple, Options{MQGSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Alg. 1 targets r but may overshoot when component sizes jump past the
	// per-part budget (the s2 "smallest above m" rule); 2r is the practical
	// ceiling.
	if len(m.Sub.Edges) > 16 {
		t.Errorf("MQG has %d edges for r=8", len(m.Sub.Edges))
	}
	lat, err := e.Lattice(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.MinimalTrees()) == 0 {
		t.Error("no minimal trees")
	}
}

func TestQueryErrors(t *testing.T) {
	g := testkg.Fig1()
	e := NewEngine(g)
	if _, err := e.QueryCtx(context.Background(), nil, Options{}); err == nil {
		t.Error("empty tuple accepted")
	}
	if _, err := e.QueryCtx(context.Background(), []graph.NodeID{99999}, Options{}); err == nil {
		t.Error("unknown entity accepted")
	}
}
