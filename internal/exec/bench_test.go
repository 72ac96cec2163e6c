package exec

import (
	"context"
	"sync"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
)

var (
	benchOnce sync.Once
	benchG    *graph.Graph
	benchSt   *storage.Store
	benchLat  *lattice.Lattice
)

// benchFixture discovers the MQG and lattice for workload query F1 over the
// kgsynth Freebase-like graph (seed 42) once per process; the benchmarks
// re-evaluate lattice nodes against the shared store.
func benchFixture(tb testing.TB) (*storage.Store, *lattice.Lattice) {
	tb.Helper()
	benchOnce.Do(func() {
		ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
		benchG = ds.Graph
		benchSt = storage.Build(benchG)
		tuple, err := ds.Tuple(ds.MustQuery("F1").QueryTuple())
		if err != nil {
			panic(err)
		}
		nres, err := neighborhood.ExtractCtx(context.Background(), benchG, tuple, 2)
		if err != nil {
			panic(err)
		}
		m, err := mqg.DiscoverCtx(context.Background(), stats.New(benchSt), nres.Reduced, tuple, 15)
		if err != nil {
			panic(err)
		}
		benchLat, err = lattice.NewCtx(context.Background(), m)
		if err != nil {
			panic(err)
		}
	})
	return benchSt, benchLat
}

// rowCount isolates the result-set representation from the benchmark bodies.
func rowCount(rows *Rows) int { return rows.Len() }

// BenchmarkEvaluateMinimalTree measures materializing one lattice bottom
// element: a base-relation scan into rows. Row materialization cost is pure
// allocator behavior — the arena refactor targets exactly this.
func BenchmarkEvaluateMinimalTree(b *testing.B) {
	st, lat := benchFixture(b)
	q := lat.MinimalTrees()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := New(st, lat)
		rows, err := ev.Evaluate(q)
		if err != nil {
			b.Fatal(err)
		}
		if rowCount(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkEvaluateFullMQG measures a full from-scratch lattice-node
// evaluation: the selectivity-greedy multi-way hash join over every MQG
// edge, the worst single node the search can hit.
func BenchmarkEvaluateFullMQG(b *testing.B) {
	st, lat := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := New(st, lat)
		if _, err := ev.Evaluate(lat.Full()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinEdgeIncremental measures the computation-sharing step of
// Alg. 2: a parent evaluated by joining one extra edge against its child's
// materialized rows (the child is evaluated once, outside the timer).
func BenchmarkJoinEdgeIncremental(b *testing.B) {
	st, lat := benchFixture(b)
	child := lat.MinimalTrees()[0]
	parents := lat.Parents(child)
	if len(parents) == 0 {
		b.Fatal("no parents")
	}
	parent := parents[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ev := New(st, lat)
		if _, err := ev.Evaluate(child); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := ev.Evaluate(parent); err != nil {
			b.Fatal(err)
		}
	}
}
