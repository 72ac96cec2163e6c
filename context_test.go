package gqbe

import (
	"context"
	"errors"
	"testing"
	"time"

	"gqbe/internal/testkg"
)

func TestQueryCtxExpiredDeadline(t *testing.T) {
	e := fig1Engine(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // guarantee the deadline has passed
	_, err := e.QueryCtx(ctx, []string{"Jerry Yang", "Yahoo!"}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestQueryCtxCanceled(t *testing.T) {
	e := fig1Engine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryCtx(ctx, []string{"Jerry Yang", "Yahoo!"}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := e.QueryMultiCtx(ctx, [][]string{
		{"Jerry Yang", "Yahoo!"},
		{"Sergey Brin", "Google"},
	}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("multi err = %v, want context.Canceled", err)
	}
}

func TestQueryCtxBackgroundMatchesQuery(t *testing.T) {
	e := fig1Engine(t)
	opts := &Options{K: 5, KPrime: 10, MQGSize: 10}
	plain, err := e.Query([]string{"Jerry Yang", "Yahoo!"}, opts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	withCtx, err := e.QueryCtx(context.Background(), []string{"Jerry Yang", "Yahoo!"}, opts)
	if err != nil {
		t.Fatalf("QueryCtx: %v", err)
	}
	if len(plain.Answers) != len(withCtx.Answers) {
		t.Fatalf("answer counts differ: %d vs %d", len(plain.Answers), len(withCtx.Answers))
	}
	for i := range plain.Answers {
		if plain.Answers[i].Score != withCtx.Answers[i].Score {
			t.Errorf("answer %d: score %v vs %v", i, plain.Answers[i].Score, withCtx.Answers[i].Score)
		}
	}
}

func TestErrUnknownEntity(t *testing.T) {
	e := fig1Engine(t)
	_, err := e.Query([]string{"Nobody", "Yahoo!"}, nil)
	if !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("err = %v, want ErrUnknownEntity", err)
	}
}

func TestStatsStoppedReason(t *testing.T) {
	e := fig1Engine(t)
	res, err := e.Query([]string{"Jerry Yang", "Yahoo!"}, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	switch res.Stats.Stopped {
	case "topk-proven", "frontier-exhausted", "max-evaluations":
	default:
		t.Errorf("Stopped = %q, want a known stop reason", res.Stats.Stopped)
	}

	capped, err := e.Query([]string{"Jerry Yang", "Yahoo!"}, &Options{MaxEvaluations: 1})
	if err != nil {
		t.Fatalf("capped Query: %v", err)
	}
	if capped.Stats.Stopped != "max-evaluations" {
		t.Errorf("capped Stopped = %q, want max-evaluations", capped.Stats.Stopped)
	}
	if capped.Stats.Terminated {
		t.Error("capped query reported Terminated (top-k proof) — it stopped on the safety valve")
	}
}

// TestStatsRowBudgetSkips checks that the public Stats carry the engine's
// row-budget skip count on a query whose budget forces skips.
func TestStatsRowBudgetSkips(t *testing.T) {
	g := testkg.Fig1Padded()
	e, err := fromGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{K: 10, MQGSize: 10, MaxRows: 8}
	res, err := e.Query([]string{"Jerry Yang", "Yahoo!"}, opts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	want, err := e.eng.QueryCtx(context.Background(), testkg.Tuple(g, "Jerry Yang", "Yahoo!"), opts.toCore())
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.RowBudgetSkips == 0 {
		t.Fatalf("fixture too small: no row-budget skips at MaxRows=%d", opts.MaxRows)
	}
	if res.Stats.RowBudgetSkips != want.Stats.RowBudgetSkips {
		t.Errorf("Stats.RowBudgetSkips = %d, engine skipped %d", res.Stats.RowBudgetSkips, want.Stats.RowBudgetSkips)
	}
}
