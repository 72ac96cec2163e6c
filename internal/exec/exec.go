// Package exec evaluates query graphs against the vertical-partition store
// using the right-deep hash-join strategy of §V-A. Each lattice node's
// answer set is materialized so that evaluating a parent Q = Q' + e probes
// the already-materialized rows of its child Q' against the hash table of
// e's label — the computation sharing Alg. 2 depends on.
//
// All query-graph nodes are variables (Def. 3 requires only edge labels to
// match), so an answer is an injective assignment of data-graph nodes to the
// query graph's nodes such that every query edge maps to a data edge with
// the same label.
//
// Materialized answers live in flat arenas: a lattice node's rows are one
// backing []graph.NodeID with stride = slot count (Rows), not millions of
// individual row slices. Every join sizes its output before writing a row: a
// read-only pass sums the probe rows' posting-list lengths, and only when
// that bound passes the row budget does an exact count (also read-only)
// decide whether the node fits. The arena is then cut once at exactly that
// size and filled by indexed writes — never regrown — and a node over the
// budget costs the counting reads but no arena at all. Arenas are recycled
// across lattice nodes within one evaluator, so a search's join traffic is a
// handful of large allocations instead of per-row garbage.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"gqbe/internal/fault"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/storage"
)

// Unbound marks a row slot whose query-graph node has not been assigned yet.
// It is far below any data node ID and any virtual entity ID.
const Unbound graph.NodeID = math.MinInt32

// DefaultMaxRows bounds the materialized rows of a single lattice node; a
// query graph whose evaluation exceeds it fails with ErrTooManyRows rather
// than exhausting memory. The paper's slowest queries (F4, F19) hit exactly
// this kind of join blow-up.
const DefaultMaxRows = 5_000_000

// ErrTooManyRows reports a join blow-up beyond the configured row budget.
var ErrTooManyRows = errors.New("exec: intermediate result exceeds row budget")

// cancelCheckInterval is how many probe/output rows a join processes between
// context checks. Checking per row would put an atomic load on the innermost
// loop; a few thousand rows keeps cancellation latency well under a
// millisecond on any hardware that can run the join at all.
const cancelCheckInterval = 4096

// Row is one answer graph: the data node bound to each query-graph node
// slot. Slot order is fixed by the Evaluator (see NodeAt). A Row obtained
// from Rows.Row is a view into the arena: valid until the owning lattice
// node is Released, and never to be modified by callers.
type Row []graph.NodeID

// Rows is one lattice node's materialized answer set: row i occupies
// data[i*stride : (i+1)*stride] of a single flat arena.
type Rows struct {
	data   []graph.NodeID
	stride int
}

// Len returns the number of rows.
func (r *Rows) Len() int {
	if r == nil || r.stride == 0 {
		return 0
	}
	return len(r.data) / r.stride
}

// Row returns row i as a zero-copy view into the arena.
func (r *Rows) Row(i int) Row { return Row(r.data[i*r.stride : (i+1)*r.stride]) }

// memo is the evaluation state an evaluator shares with its forks: the
// memoized per-node answer sets and the evaluation counter. Row sets are
// immutable once installed, so the mutex guards only the map and counter —
// the joins themselves run outside it.
type memo struct {
	mu        sync.Mutex
	results   map[lattice.EdgeSet]*Rows
	evaluated int
	// Join-strategy traffic, for trace attrs: memo hits, one-edge
	// incremental joins, and from-scratch evaluations. Mutated only under
	// mu on paths that already hold it, so recording is free.
	memoHits    int
	incremental int
	scratch     int
}

// Evaluator evaluates lattice nodes over one store, memoizing results. A
// single Evaluator is single-query state and not safe for concurrent use,
// but Fork derives sibling evaluators that share the memo and may run
// Evaluate concurrently with each other and with the parent.
type Evaluator struct {
	store   *storage.Store
	lat     *lattice.Lattice
	maxRows int
	ctx     context.Context // nil means "not cancelable"; see ctxErr

	nodes   []graph.NodeID       // slot → MQG node
	slotOf  map[graph.NodeID]int // MQG node → slot
	srcSlot []int                // per MQG edge: slot of Src
	dstSlot []int                // per MQG edge: slot of Dst

	entitySlots []int // tuple position → slot

	unboundRow []graph.NodeID // stride Unbound values, the scanEdge template

	// memo is shared across Fork; everything above it is immutable after
	// New, and everything below is per-evaluator.
	memo *memo
	// free holds arenas recycled by Release and by superseded scratch
	// intermediates, reused by later evaluations. Deliberately per-evaluator
	// (not on the shared memo): forked workers recycle and reuse arenas
	// without contending on a lock in the join hot path.
	free [][]graph.NodeID
}

// Option configures an Evaluator.
type Option func(*Evaluator)

// WithMaxRows overrides the row budget.
func WithMaxRows(n int) Option {
	return func(ev *Evaluator) { ev.maxRows = n }
}

// WithContext attaches a cancellation context: joins abort with the context's
// error at batch boundaries (every few thousand rows) once it is done.
func WithContext(ctx context.Context) Option {
	return func(ev *Evaluator) {
		if ctx != nil {
			ev.ctx = ctx
		}
	}
}

// New builds an evaluator for the query lattice l over store s.
func New(s *storage.Store, l *lattice.Lattice, opts ...Option) *Evaluator {
	ev := &Evaluator{
		store:   s,
		lat:     l,
		maxRows: DefaultMaxRows,
		slotOf:  make(map[graph.NodeID]int),
		memo:    &memo{results: make(map[lattice.EdgeSet]*Rows)},
	}
	slot := func(v graph.NodeID) int {
		if i, ok := ev.slotOf[v]; ok {
			return i
		}
		i := len(ev.nodes)
		ev.nodes = append(ev.nodes, v)
		ev.slotOf[v] = i
		return i
	}
	for _, e := range l.M.Sub.Edges {
		ev.srcSlot = append(ev.srcSlot, slot(e.Src))
		ev.dstSlot = append(ev.dstSlot, slot(e.Dst))
	}
	for _, v := range l.M.Tuple {
		ev.entitySlots = append(ev.entitySlots, ev.slotOf[v])
	}
	ev.unboundRow = make([]graph.NodeID, len(ev.nodes))
	for i := range ev.unboundRow {
		ev.unboundRow[i] = Unbound
	}
	for _, o := range opts {
		o(ev)
	}
	return ev
}

// NumSlots returns the number of query-graph node slots.
func (ev *Evaluator) NumSlots() int { return len(ev.nodes) }

// NodeAt returns the MQG node occupying a slot.
func (ev *Evaluator) NodeAt(slot int) graph.NodeID { return ev.nodes[slot] }

// SlotOf returns the slot of an MQG node.
func (ev *Evaluator) SlotOf(v graph.NodeID) (int, bool) {
	i, ok := ev.slotOf[v]
	return i, ok
}

// EdgeSlots returns the (src, dst) slots of MQG edge i.
func (ev *Evaluator) EdgeSlots(i int) (int, int) { return ev.srcSlot[i], ev.dstSlot[i] }

// EntitySlots returns the slots holding the answer-tuple entities, in tuple
// order.
func (ev *Evaluator) EntitySlots() []int { return ev.entitySlots }

// TupleOf projects a row to its answer tuple (Def. 3's t_A), allocating the
// result. Hot loops should use AppendTuple with a reused buffer instead.
func (ev *Evaluator) TupleOf(row Row) []graph.NodeID {
	return ev.AppendTuple(nil, row)
}

// AppendTuple appends row's answer tuple to dst and returns the extended
// slice; passing dst[:0] across rows makes tuple projection allocation-free.
//
//gqbe:hotpath
func (ev *Evaluator) AppendTuple(dst []graph.NodeID, row Row) []graph.NodeID {
	for _, s := range ev.entitySlots {
		dst = append(dst, row[s])
	}
	return dst
}

// ctxErr reports the evaluator's cancellation state. A nil ctx — an
// evaluator built without WithContext — is never canceled; defaulting the
// field to a fresh context.Background() would hide a severed cancellation
// chain from the ctxflow invariant instead of surfacing the caller's bug.
func (ev *Evaluator) ctxErr() error {
	if ev.ctx == nil {
		return nil
	}
	return ev.ctx.Err()
}

// Fork returns an evaluator sharing ev's query plan and memoized results but
// owning its own arena pool and running under ctx (nil keeps the parent's).
// Forked siblings may call Evaluate concurrently: the memo is mutex-guarded,
// installed row sets are immutable, and when two forks race to evaluate one
// node the first install wins and the loser's arena is recycled locally.
// Release must not run concurrently with any fork's Evaluate.
func (ev *Evaluator) Fork(ctx context.Context) *Evaluator {
	f := *ev     // shares the plan slices (immutable after New) and the memo
	f.free = nil // arenas are per-evaluator
	if ctx != nil {
		f.ctx = ctx
	}
	return &f
}

// Evaluated returns the number of lattice-node evaluations this evaluator
// (and its forks) ran — Fig. 15's metric for a sequential search. Under
// concurrent forks it includes speculative and duplicate evaluations;
// callers wanting the sequential-equivalent count must track consumption
// themselves (internal/topk does).
func (ev *Evaluator) Evaluated() int {
	ev.memo.mu.Lock()
	defer ev.memo.mu.Unlock()
	return ev.memo.evaluated
}

// Counters reports the memo traffic across this evaluator and its forks:
// total evaluations, memo hits, one-edge incremental joins, and from-scratch
// evaluations. The trace layer attaches these to the search span.
func (ev *Evaluator) Counters() (evaluated, memoHits, incremental, scratch int) {
	ev.memo.mu.Lock()
	defer ev.memo.mu.Unlock()
	return ev.memo.evaluated, ev.memo.memoHits, ev.memo.incremental, ev.memo.scratch
}

// Rows returns the materialized answers of q, if it has been evaluated.
func (ev *Evaluator) Rows(q lattice.EdgeSet) (*Rows, bool) {
	ev.memo.mu.Lock()
	defer ev.memo.mu.Unlock()
	rows, ok := ev.memo.results[q]
	return rows, ok
}

// Release drops the materialized answers of q, recycling their arena for
// later evaluations. Rows previously returned for q become invalid.
func (ev *Evaluator) Release(q lattice.EdgeSet) {
	ev.memo.mu.Lock()
	rows, ok := ev.memo.results[q]
	delete(ev.memo.results, q)
	ev.memo.mu.Unlock()
	if ok {
		ev.recycle(rows)
	}
}

// newRows returns an empty row set backed by a recycled arena when one is
// available, with capacity for at least capRows rows either way.
func (ev *Evaluator) newRows(capRows int) *Rows {
	stride := len(ev.nodes)
	want := capRows * stride
	// want == 0 never draws from the pool: an empty result needs no
	// backing, and memoized empty nodes must not pin recycled arenas.
	if n := len(ev.free); n > 0 && want > 0 {
		// Reuse the top arena when it can hold the hint; a too-small one
		// stays pooled for a smaller consumer and a fresh arena is cut.
		if data := ev.free[n-1]; cap(data) >= want {
			ev.free = ev.free[:n-1]
			return &Rows{data: data[:0], stride: stride}
		}
	}
	return &Rows{data: make([]graph.NodeID, 0, want), stride: stride}
}

// recycle returns an arena to the free list for reuse.
func (ev *Evaluator) recycle(rows *Rows) {
	if rows != nil && cap(rows.data) > 0 {
		ev.free = append(ev.free, rows.data[:0])
	}
}

// Evaluate returns all answer graphs of query graph q, evaluating and
// memoizing it if needed. If some already-evaluated child Q' = q − e exists,
// only the one extra edge is joined against Q”s materialized rows;
// otherwise q is evaluated from scratch in a selectivity-greedy join order.
//
// The answer set (and whether the row budget trips) is a function of q
// alone: extending any child appends exactly q's answer rows, and scratch
// evaluation never reads the memo — so concurrent forks racing through here
// in any interleaving produce the same rows for q, differing at most in row
// order. The parallel search in internal/topk depends on this.
//
//gqbe:hotpath
func (ev *Evaluator) Evaluate(q lattice.EdgeSet) (*Rows, error) {
	if q == 0 {
		return nil, errors.New("exec: empty query graph")
	}
	// Injection points sit before the memo lock so an injected panic can
	// never strand the mutex; when disarmed each is a nil-check.
	if err := fault.Check(fault.ExecEvalErr); err != nil {
		return nil, err
	}
	fault.PanicIf(fault.ExecEvalPanic)
	// One lock hold for the memo hit, the child probe, and the counter;
	// the join below runs outside it, reading only immutable child rows.
	childEdge := -1
	var childRows *Rows
	ev.memo.mu.Lock()
	if rows, ok := ev.memo.results[q]; ok {
		ev.memo.memoHits++
		ev.memo.mu.Unlock()
		return rows, nil
	}
	if err := ev.ctxErr(); err != nil {
		ev.memo.mu.Unlock()
		return nil, err
	}
	ev.memo.evaluated++
	// Prefer extending a materialized child by one edge (shared computation).
	for r := uint64(q); r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		if rows, ok := ev.memo.results[q&^lattice.Bit(i)]; ok {
			childEdge, childRows = i, rows
			break
		}
	}
	if childEdge >= 0 {
		ev.memo.incremental++
	} else {
		ev.memo.scratch++
	}
	ev.memo.mu.Unlock()

	var rows *Rows
	var err error
	if childEdge >= 0 {
		rows, err = ev.joinEdge(childRows, q&^lattice.Bit(childEdge), childEdge)
	} else {
		rows, err = ev.evaluateScratch(q)
	}
	if err != nil {
		return nil, err
	}
	return ev.install(q, rows), nil
}

// install publishes rows as q's memoized answers. If a racing fork installed
// q first, the existing rows win — callers elsewhere may already hold them —
// and the duplicate's arena is recycled locally.
func (ev *Evaluator) install(q lattice.EdgeSet, rows *Rows) *Rows {
	ev.memo.mu.Lock()
	if exist, ok := ev.memo.results[q]; ok {
		ev.memo.mu.Unlock()
		ev.recycle(rows)
		return exist
	}
	ev.memo.results[q] = rows
	ev.memo.mu.Unlock()
	return rows
}

// evaluateScratch evaluates q with no materialized child: edges are joined
// one at a time, always picking a next edge that shares a bound slot, with
// the smallest table first (join selectivity dominates cost, §VI-D).
// Intermediate row sets are recycled as soon as the next join supersedes
// them — only the final result keeps its arena.
func (ev *Evaluator) evaluateScratch(q lattice.EdgeSet) (*Rows, error) {
	tableLen := func(i int) int {
		t, ok := ev.store.Table(ev.lat.M.Sub.Edges[i].Label)
		if !ok {
			return 0
		}
		return t.Len()
	}
	// Pick the globally smallest table as the base relation.
	first := -1
	for r := uint64(q); r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		if first == -1 || tableLen(i) < tableLen(first) {
			first = i
		}
	}
	rows, err := ev.scanEdge(first)
	if err != nil {
		return nil, err
	}
	joined := lattice.Bit(first)
	for joined != q {
		// Choose the connected edge with the smallest table.
		pick := -1
		for r := uint64(q &^ joined); r != 0; r &= r - 1 {
			i := bits.TrailingZeros64(r)
			if !ev.covers(joined, ev.srcSlot[i]) && !ev.covers(joined, ev.dstSlot[i]) {
				continue
			}
			if pick == -1 || tableLen(i) < tableLen(pick) {
				pick = i
			}
		}
		if pick == -1 {
			return nil, errDisconnected(q)
		}
		next, err := ev.joinEdge(rows, joined, pick)
		if err != nil {
			return nil, err
		}
		ev.recycle(rows) // superseded intermediate: arena goes back to the pool
		rows = next
		joined |= lattice.Bit(pick)
	}
	return rows, nil
}

// scanEdge materializes the base relation: one row per pair in edge i's
// label table, written directly into a flat arena.
//
//gqbe:hotpath
func (ev *Evaluator) scanEdge(i int) (*Rows, error) {
	ss, ds := ev.srcSlot[i], ev.dstSlot[i]
	t, ok := ev.store.Table(ev.lat.M.Sub.Edges[i].Label)
	if !ok {
		return ev.newRows(0), nil // label with no edges: no answers
	}
	subj, obj := t.PairCols()
	if len(subj) > ev.maxRows {
		//gqbelint:ignore hotalloc cold error path: the row-budget abort runs at most once per evaluation
		return nil, fmt.Errorf("%w: base scan of %d rows", ErrTooManyRows, len(subj))
	}
	out := ev.newRows(len(subj))
	for n, s := range subj {
		if n%cancelCheckInterval == 0 {
			if err := ev.ctxErr(); err != nil {
				return nil, err
			}
		}
		o := obj[n]
		if ss == ds {
			// self-loop query edge: subject and object must coincide
			if s != o {
				continue
			}
		} else if s == o {
			continue // injectivity: two distinct query nodes, one data node
		}
		base := len(out.data)
		out.data = append(out.data, ev.unboundRow...)
		out.data[base+ss] = s
		out.data[base+ds] = o
	}
	return out, nil
}

// joinEdge is the hash-join of §V-A: the rows — child's answers — are the
// probe relation, the label table of edge i is the build relation. Edge i
// must share a node with child: if both endpoint slots are bound the join
// verifies the edge, otherwise it extends each row by the one new binding.
// countEdge sizes the output first, so the rows are written into one arena
// of exactly that size; the probe rows are not touched.
//
//gqbe:hotpath
func (ev *Evaluator) joinEdge(rows *Rows, child lattice.EdgeSet, i int) (*Rows, error) {
	ss, ds := ev.srcSlot[i], ev.dstSlot[i]
	bs, bd := ev.covers(child, ss), ev.covers(child, ds)
	if !bs && !bd {
		return nil, errDisconnected(child | lattice.Bit(i))
	}
	t, ok := ev.store.Table(ev.lat.M.Sub.Edges[i].Label)
	if !ok {
		return ev.newRows(0), nil // label with no edges: no answers
	}
	verify := bs && bd
	size, err := ev.countEdge(rows, t, i, verify, bs)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return ev.newRows(0), nil
	}
	ext := ds // the slot a new binding fills
	if !bs {
		ext = ss
	}
	out := ev.newRows(size)
	stride := out.stride
	data := out.data[:size*stride]
	w := 0
	for n, nrows := 0, rows.Len(); n < nrows; n++ {
		if n%cancelCheckInterval == 0 {
			if err := ev.ctxErr(); err != nil {
				return nil, err
			}
		}
		row := rows.Row(n)
		if verify {
			if t.Has(row[ss], row[ds]) {
				copy(data[w:w+stride], row)
				w += stride
			}
			continue
		}
		for _, v := range matches(t, row, ss, ds, bs) {
			if ev.conflicts(row, v) {
				continue
			}
			dst := data[w : w+stride]
			copy(dst, row)
			dst[ext] = v
			w += stride
		}
	}
	out.data = data[:w]
	return out, nil
}

// countEdge returns how many rows joinEdge(rows, ·, i) must make room for,
// or ErrTooManyRows if the join exceeds the row budget. The first pass reads
// only posting-list lengths (one per row when verifying) and writes nothing;
// that upper bound is the answer whenever it fits the budget. Only a bound
// past the budget pays for an exact count with the fill's own injectivity
// and edge checks, which stops as soon as the count passes the budget — so
// the count exceeds the budget exactly when a full join would, and an
// over-budget node never allocates an arena.
//
//gqbe:hotpath
func (ev *Evaluator) countEdge(rows *Rows, t *storage.Table, i int, verify, fwd bool) (int, error) {
	ss, ds := ev.srcSlot[i], ev.dstSlot[i]
	nrows := rows.Len()
	bound := nrows
	if !verify {
		bound = 0
		for n := 0; n < nrows; n++ {
			if n%cancelCheckInterval == 0 {
				if err := ev.ctxErr(); err != nil {
					return 0, err
				}
			}
			row := rows.Row(n)
			if fwd {
				bound += t.OutDegree(row[ss])
			} else {
				bound += t.InDegree(row[ds])
			}
		}
	}
	if bound <= ev.maxRows {
		return bound, nil
	}
	count := 0
	for n := 0; n < nrows; n++ {
		if n%cancelCheckInterval == 0 {
			if err := ev.ctxErr(); err != nil {
				return 0, err
			}
		}
		row := rows.Row(n)
		if verify {
			if t.Has(row[ss], row[ds]) {
				count++
			}
		} else {
			for _, v := range matches(t, row, ss, ds, fwd) {
				if !ev.conflicts(row, v) {
					count++
				}
			}
		}
		if count > ev.maxRows {
			//gqbelint:ignore hotalloc cold error path: the row-budget abort runs at most once per evaluation
			return 0, fmt.Errorf("%w: joining edge %d", ErrTooManyRows, i)
		}
	}
	return count, nil
}

// matches returns the build-side candidates for the unbound endpoint of the
// query edge (ss, ds) in row: the objects of row[ss] when fwd, otherwise
// the subjects of row[ds].
//
//gqbe:hotpath
func matches(t *storage.Table, row Row, ss, ds int, fwd bool) []graph.NodeID {
	if fwd {
		return t.Objects(row[ss])
	}
	return t.Subjects(row[ds])
}

// covers reports whether slot s is an endpoint of some edge of q, i.e.
// bound in every row of q's answers.
//
//gqbe:hotpath
func (ev *Evaluator) covers(q lattice.EdgeSet, s int) bool {
	for r := uint64(q); r != 0; r &= r - 1 {
		j := bits.TrailingZeros64(r)
		if ev.srcSlot[j] == s || ev.dstSlot[j] == s {
			return true
		}
	}
	return false
}

// errDisconnected reports an edge set the joins cannot evaluate: valid
// lattice nodes are weakly connected, so only hand-built edge sets get here.
func errDisconnected(q lattice.EdgeSet) error {
	return fmt.Errorf("exec: query graph %b is not weakly connected", q)
}

// conflicts reports whether binding v would violate injectivity against the
// row's existing bindings (Def. 3's bijection).
//
//gqbe:hotpath
func (ev *Evaluator) conflicts(row Row, v graph.NodeID) bool {
	for _, b := range row {
		if b == v {
			return true
		}
	}
	return false
}
