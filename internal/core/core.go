// Package core implements the paper's subject matter: schedulers for
// fine-grained multithreaded programs on chip multiprocessors.
//
// Two policies are compared throughout the paper:
//
//   - PDF (Parallel Depth First; Blelloch, Gibbons & Matias, JACM 1999):
//     ready tasks are prioritized by how early the sequential program would
//     have executed them (their 1DF number). PDF therefore co-schedules
//     threads that track the sequential execution, and its aggregate working
//     set provably stays close to the single-thread working set (Blelloch &
//     Gibbons, SPAA 2004) — the property behind constructive cache sharing.
//
//   - WS (Work Stealing; Blumofe & Leiserson, JACM 1999): each core owns a
//     deque of ready tasks, pushing and popping at the top; an idle core
//     steals from the bottom of the first non-empty deque it finds. Steals
//     are rare when parallelism is plentiful, but cores drift into disjoint
//     regions of the computation, so working sets add up instead of
//     overlapping.
//
// Two more policies exist for ablations: a central FIFO queue (a strawman
// that destroys both locality and depth-first order) and a WS variant that
// steals from the newest end.
//
// Schedulers are driven by the deterministic simulator in internal/sim; all
// methods are single-threaded. Dispatch costs are returned in cycles and
// charged to the requesting core by the engine, modeling the latency of the
// shared queue (PDF) versus local deques plus steal probes (WS).
package core

import (
	"fmt"
	"strings"

	"repro/internal/dag"
	"repro/internal/deque"
	"repro/internal/pq"
	"repro/internal/xprng"
)

// CoreID identifies a simulated processing core, dense from 0.
type CoreID int

// Stats counts scheduler events over a run.
type Stats struct {
	Pushes       int64
	Pops         int64 // successful dispatches
	EmptyPops    int64 // dispatch attempts that found no work
	Steals       int64 // WS: successful steals
	StealProbes  int64 // WS: queues examined while searching
	FailedSteals int64 // WS: full scans that found every queue empty
}

// Scheduler is the policy interface the simulation engine drives.
//
// The engine contract: Reset is called once per run before any other
// method; Push delivers a node that has just become ready, with `from` the
// core that completed its last parent (or core 0 for the root). When a node
// completes with several children becoming ready at once, the engine pushes
// them in REVERSE spawn order, so LIFO policies surface the leftmost child
// first — matching the depth-first local execution order of Cilk-style
// runtimes. Pop asks for work for an idle core and returns the task plus
// the dispatch overhead in cycles (charged even when no task is found).
type Scheduler interface {
	Name() string
	Reset(ncores int, g *dag.Graph)
	Push(from CoreID, n *dag.Node)
	Pop(c CoreID) (n *dag.Node, overhead int64)
	Stats() Stats
}

// Overheads are the dispatch cost knobs, taken from machine.Config.
type Overheads struct {
	PDFDispatch  int64 // PDF: one access to the shared priority queue
	WSPopLocal   int64 // WS: pop from own deque
	WSStealProbe int64 // WS: examining one victim deque
	WSStealXfer  int64 // WS: migrating a stolen task
}

// ---------------------------------------------------------------------------
// PDF

// PDF is the Parallel Depth First scheduler: a single shared pool ordered by
// 1DF number.
type PDF struct {
	heap     pq.Min[*dag.Node]
	dispatch int64
	stats    Stats
}

// NewPDF returns a PDF scheduler with the given per-dispatch overhead.
func NewPDF(o Overheads) *PDF { return &PDF{dispatch: o.PDFDispatch} }

// Name implements Scheduler.
func (p *PDF) Name() string { return "pdf" }

// Reset implements Scheduler.
func (p *PDF) Reset(ncores int, g *dag.Graph) {
	p.heap.Reset()
	p.stats = Stats{}
}

// Push implements Scheduler: priority is the node's 1DF number.
func (p *PDF) Push(from CoreID, n *dag.Node) {
	p.stats.Pushes++
	p.heap.Push(int64(n.DF), n)
}

// Pop implements Scheduler: always the earliest-sequential ready task.
func (p *PDF) Pop(c CoreID) (*dag.Node, int64) {
	n, _, ok := p.heap.Pop()
	if !ok {
		p.stats.EmptyPops++
		return nil, p.dispatch
	}
	p.stats.Pops++
	return n, p.dispatch
}

// Stats implements Scheduler.
func (p *PDF) Stats() Stats { return p.stats }

// ---------------------------------------------------------------------------
// WS

// WS is the Work Stealing scheduler: one deque per core.
type WS struct {
	deques []deque.Deque[*dag.Node]
	o      Overheads
	rng    *xprng.PRNG
	seed   uint64
	stats  Stats

	// StealNewest flips the steal end from the paper's bottom (oldest) to
	// the top (newest); used by the a4-stealpolicy ablation.
	StealNewest bool
}

// NewWS returns a work-stealing scheduler. seed drives victim selection;
// runs with equal seeds are identical.
func NewWS(o Overheads, seed uint64) *WS { return &WS{o: o, seed: seed} }

// Name implements Scheduler.
func (w *WS) Name() string {
	if w.StealNewest {
		return "ws-stealnewest"
	}
	return "ws"
}

// Reset implements Scheduler.
func (w *WS) Reset(ncores int, g *dag.Graph) {
	if len(w.deques) != ncores {
		w.deques = make([]deque.Deque[*dag.Node], ncores)
	} else {
		for i := range w.deques {
			w.deques[i].Reset()
		}
	}
	w.rng = xprng.New(w.seed)
	w.stats = Stats{}
}

// Push implements Scheduler: ready tasks go on top of the discovering
// core's own deque.
func (w *WS) Push(from CoreID, n *dag.Node) {
	w.stats.Pushes++
	w.deques[from].PushTop(n)
}

// Pop implements Scheduler: own deque first (LIFO), then steal from the
// first non-empty victim, scanning round-robin from a random start.
func (w *WS) Pop(c CoreID) (*dag.Node, int64) {
	cost := w.o.WSPopLocal
	if n, ok := w.deques[c].PopTop(); ok {
		w.stats.Pops++
		return n, cost
	}
	ncores := len(w.deques)
	if ncores == 1 {
		w.stats.EmptyPops++
		return nil, cost
	}
	start := w.rng.Intn(ncores)
	for i := 0; i < ncores; i++ {
		v := (start + i) % ncores
		if v == int(c) {
			continue
		}
		cost += w.o.WSStealProbe
		w.stats.StealProbes++
		var n *dag.Node
		var ok bool
		if w.StealNewest {
			n, ok = w.deques[v].PopTop()
		} else {
			n, ok = w.deques[v].PopBottom()
		}
		if ok {
			w.stats.Steals++
			w.stats.Pops++
			return n, cost + w.o.WSStealXfer
		}
	}
	w.stats.FailedSteals++
	w.stats.EmptyPops++
	return nil, cost
}

// Stats implements Scheduler.
func (w *WS) Stats() Stats { return w.stats }

// ---------------------------------------------------------------------------
// Central FIFO (ablation strawman)

// FIFO is a single shared first-come-first-served queue: the simplest
// possible scheduler, with neither WS's locality nor PDF's sequential order.
// It exists to show both properties matter (a4-stealpolicy ablation).
type FIFO struct {
	q        deque.Deque[*dag.Node]
	dispatch int64
	stats    Stats
}

// NewFIFO returns a central-queue scheduler with the given dispatch cost.
func NewFIFO(dispatch int64) *FIFO { return &FIFO{dispatch: dispatch} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Reset implements Scheduler.
func (f *FIFO) Reset(ncores int, g *dag.Graph) {
	f.q.Reset()
	f.stats = Stats{}
}

// Push implements Scheduler.
func (f *FIFO) Push(from CoreID, n *dag.Node) {
	f.stats.Pushes++
	f.q.PushTop(n)
}

// Pop implements Scheduler: oldest ready task first (breadth-first-ish).
func (f *FIFO) Pop(c CoreID) (*dag.Node, int64) {
	n, ok := f.q.PopBottom()
	if !ok {
		f.stats.EmptyPops++
		return nil, f.dispatch
	}
	f.stats.Pops++
	return n, f.dispatch
}

// Stats implements Scheduler.
func (f *FIFO) Stats() Stats { return f.stats }

// ---------------------------------------------------------------------------

// Names lists the scheduler names Lookup and ByName accept, in the
// experiment tables' canonical order. CLI usage texts and grid validation
// derive the valid set from here, so a new scheduler is advertised
// everywhere by adding it to this list and the Lookup switch.
func Names() []string {
	return []string{"pdf", "ws", "ws-stealnewest", "fifo"}
}

// Lookup constructs a scheduler from its experiment-table name, returning
// an error naming the valid set on unknown input. This is the entry point
// for user-supplied names (cmpsim -sched, sweep grids); trusted
// experiment-table callers can use ByName.
func Lookup(name string, o Overheads, seed uint64) (Scheduler, error) {
	switch name {
	case "pdf":
		return NewPDF(o), nil
	case "ws":
		return NewWS(o, seed), nil
	case "ws-stealnewest":
		w := NewWS(o, seed)
		w.StealNewest = true
		return w, nil
	case "fifo":
		return NewFIFO(o.PDFDispatch), nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
}

// ByName constructs a scheduler from its experiment-table name, panicking
// on unknown names — for callers whose names come from the registry, not
// from users.
func ByName(name string, o Overheads, seed uint64) Scheduler {
	s, err := Lookup(name, o, seed)
	if err != nil {
		panic(err)
	}
	return s
}
