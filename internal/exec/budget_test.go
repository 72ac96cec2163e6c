package exec

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gqbe/internal/lattice"
	"gqbe/internal/storage"
)

// TestDisconnectedEdgeSetFails evaluates a disconnected superset of a
// memoized child. Extending the child by an edge that shares no node with
// it must fail, not return a cartesian product, and both join paths must
// reject the edge set alike.
func TestDisconnectedEdgeSetFails(t *testing.T) {
	_, _, ev := fig1Fixture(t)
	// Edge 0 (Jerry Yang -founded-> Yahoo!) and edge 2 (Sunnyvale
	// -located_in-> California) share no node.
	q := lattice.Bit(0) | lattice.Bit(2)
	if _, err := ev.Evaluate(lattice.Bit(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(q); err == nil || !strings.Contains(err.Error(), "not weakly connected") {
		t.Errorf("incremental path: err = %v, want not weakly connected", err)
	}
	if _, ok := ev.Rows(q); ok {
		t.Error("incremental path memoized a disconnected edge set")
	}
	_, _, fresh := fig1Fixture(t)
	if _, err := fresh.Evaluate(q); err == nil || !strings.Contains(err.Error(), "not weakly connected") {
		t.Errorf("scratch path: err = %v, want not weakly connected", err)
	}
}

// validNodes lists every node of lat: the weakly connected edge sets that
// contain all query entities.
func validNodes(lat *lattice.Lattice) []lattice.EdgeSet {
	var out []lattice.EdgeSet
	for q := lattice.EdgeSet(1); q <= lat.Full(); q++ {
		if lat.Full().Subsumes(q) && lat.IsValid(q) {
			out = append(out, q)
		}
	}
	return out
}

// minArenaBytes is the smallest arena the allocation check measures. The
// ErrTooManyRows value costs up to ~0.5 KiB (fmt re-allocates its printer
// after a GC empties its pool), so smaller arenas cannot be told apart.
const minArenaBytes = 2 << 10

// checkBudgetBoundary evaluates every node of lat right at its row budget
// and one row under it, on the incremental and the scratch path.
func checkBudgetBoundary(t *testing.T, st *storage.Store, lat *lattice.Lattice) {
	t.Helper()
	unbounded := New(st, lat, WithMaxRows(math.MaxInt))
	stride := unbounded.NumSlots()
	measured := 0
	for _, q := range validNodes(lat) {
		ref, err := unbounded.Evaluate(q)
		if err != nil {
			t.Fatalf("node %b: %v", q, err)
		}
		n := ref.Len()

		// Incremental: the child is materialized without a budget, so the
		// budget binds exactly one joinEdge — the one producing q.
		if children := lat.Children(q); len(children) > 0 {
			withChild := func() *Evaluator {
				ev := New(st, lat, WithMaxRows(math.MaxInt))
				if _, err := ev.Evaluate(children[0]); err != nil {
					t.Fatalf("child %b: %v", children[0], err)
				}
				return ev
			}
			ev := withChild()
			want, err := ev.Evaluate(q)
			if err != nil {
				t.Fatalf("node %b: %v", q, err)
			}
			ev = withChild()
			ev.maxRows = n
			got, err := ev.Evaluate(q)
			if err != nil {
				t.Errorf("node %b: incremental at budget %d: %v", q, n, err)
			} else if !reflect.DeepEqual(got.data, want.data) {
				t.Errorf("node %b: incremental rows at budget %d differ from unbounded", q, n)
			}
			if n > 0 {
				// An over-budget join only counts: it never cuts an arena.
				// TotalAlloc is process-wide, so another goroutine (the
				// runtime's, the test framework's) can only add to it: the
				// least of a few tries is this join's own allocation.
				alloc := uint64(math.MaxUint64)
				for try := 0; try < 3; try++ {
					ev = withChild()
					ev.maxRows = n - 1
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					_, err := ev.Evaluate(q)
					runtime.ReadMemStats(&after)
					alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
					if !errors.Is(err, ErrTooManyRows) {
						t.Errorf("node %b: incremental at budget %d: err = %v, want ErrTooManyRows", q, n-1, err)
						break
					}
				}
				arena := uint64(n * stride * 4)
				if arena >= minArenaBytes {
					measured++
					if alloc > arena/2 {
						t.Errorf("node %b: over-budget join allocated %d B, arena of %d rows is %d B", q, alloc, n, arena)
					}
				}
			}
		}

		// Scratch: every intermediate is budgeted too (the base scan by its
		// raw table length), so the boundary is the largest intermediate.
		// Bisect for it; it is at least n.
		scratch := func(budget int) (*Rows, error) { return New(st, lat, WithMaxRows(budget)).Evaluate(q) }
		want, err := scratch(math.MaxInt)
		if err != nil {
			t.Fatalf("node %b: scratch: %v", q, err)
		}
		lo, hi := n-1, math.MaxInt32 // scratch(lo) fails unless lo < n; scratch(hi) fits
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if _, err := scratch(mid); err == nil {
				hi = mid
			} else if !errors.Is(err, ErrTooManyRows) {
				t.Fatalf("node %b: scratch at budget %d: %v", q, mid, err)
			} else {
				lo = mid
			}
		}
		peak := hi
		got, err := scratch(peak)
		if err != nil {
			t.Errorf("node %b: scratch at budget %d: %v", q, peak, err)
		} else if !reflect.DeepEqual(got.data, want.data) {
			t.Errorf("node %b: scratch rows at budget %d differ from unbounded", q, peak)
		}
		if peak > 0 {
			if _, err := scratch(peak - 1); !errors.Is(err, ErrTooManyRows) {
				t.Errorf("node %b: scratch at budget %d: err = %v, want ErrTooManyRows", q, peak-1, err)
			}
		}
	}
	t.Logf("%d nodes, %d over-budget joins allocation-checked", len(validNodes(lat)), measured)
}

// TestRowBudgetBoundary pins the row budget to the node's exact row count:
// a node of n rows fits WithMaxRows(n) with every row intact and trips
// ErrTooManyRows at n-1, without allocating its output arena.
func TestRowBudgetBoundary(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		g, lat, _ := fig1Fixture(t)
		checkBudgetBoundary(t, storage.Build(g), lat)
	})
	t.Run("kgsynth-F1", func(t *testing.T) {
		st, lat := benchFixture(t)
		checkBudgetBoundary(t, st, lat)
	})
}
