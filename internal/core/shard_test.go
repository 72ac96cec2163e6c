package core

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"

	"gqbe/internal/kgsynth"
	"gqbe/internal/topk"
)

func TestWithShardValidation(t *testing.T) {
	eng, _ := snapshotEngine(t)
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {7, 4}} {
		if _, err := eng.WithShard(bad[0], bad[1]); err == nil {
			t.Errorf("WithShard(%d, %d) accepted", bad[0], bad[1])
		}
	}
	// count <= 1 normalizes to unsharded, whatever the index says.
	s, err := eng.WithShard(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if i, n := s.Shard(); i != 0 || n != 0 {
		t.Errorf("WithShard(3, 1) identity = %d/%d, want unsharded", i, n)
	}
	s, err = eng.WithShard(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if i, n := s.Shard(); i != 1 || n != 4 {
		t.Errorf("Shard() = %d/%d, want 1/4", i, n)
	}
	if i, n := eng.Shard(); i != 0 || n != 0 {
		t.Errorf("WithShard mutated the receiver: %d/%d", i, n)
	}
}

// TestShardQueryPartition: per-shard engine copies partition the unsharded
// answer list, and the (Score desc, tie asc) merge reconstructs it exactly —
// the engine-level restatement of the topk shard oracle.
func TestShardQueryPartition(t *testing.T) {
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
	eng := NewEngine(ds.Graph)
	tuple, err := ds.Tuple(ds.MustQuery("F1").QueryTuple())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.QueryCtx(context.Background(), tuple, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	var merged []topk.Answer
	for i := 0; i < n; i++ {
		sh, err := eng.WithShard(i, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.QueryCtx(context.Background(), tuple, Options{K: 10})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if got.Stats.Stopped != want.Stats.Stopped || got.Stats.NodesEvaluated != want.Stats.NodesEvaluated {
			t.Errorf("shard %d trajectory differs: %+v", i, got.Stats)
		}
		merged = append(merged, got.Answers...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return topk.TupleKey(merged[i].Tuple) < topk.TupleKey(merged[j].Tuple)
	})
	if len(merged) > 10 {
		merged = merged[:10]
	}
	if !reflect.DeepEqual(merged, want.Answers) {
		t.Errorf("merged shard answers differ from unsharded:\n want %+v\n got  %+v", want.Answers, merged)
	}
}

// TestShardSnapshotUnsharded: shard identity is a deployment flag, never
// data — a shard engine snapshots byte for byte like its unsharded source.
func TestShardSnapshotUnsharded(t *testing.T) {
	eng, raw := snapshotEngine(t)
	sh, err := eng.WithShard(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sh.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Error("shard engine snapshot differs from the unsharded engine's")
	}
}
