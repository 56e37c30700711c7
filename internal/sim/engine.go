// Package sim is the deterministic, cycle-driven CMP simulation engine.
//
// The engine executes a frozen computation DAG on N simulated in-order
// cores that share a cache.Hierarchy, dispatching ready tasks through a
// core.Scheduler. Everything runs on one goroutine in strict cycle order
// (ties broken by core id), so a given (workload, scheduler, configuration,
// seed) tuple always produces the identical cycle count, miss counts, and
// execution order — on any machine. This is how the reproduction sidesteps
// the host Go runtime entirely: the paper's "threads" are simulated tasks,
// never goroutines.
//
// Task execution uses record-then-replay (see internal/trace): at dispatch,
// the task's closure runs the real algorithm and records its reference
// stream; the engine then replays the stream action by action, charging
// cache and bus latencies. DAG edges guarantee input data is final before a
// task records, so recording at dispatch is exact.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// hardLimit aborts runs that exceed a trillion cycles — a deadlock guard;
// no experiment in the suite comes within orders of magnitude of it.
const hardLimit = int64(1) << 40

// coreState is one simulated processor. Its next-event time lives in the
// engine's nextAt and order arrays, not here. Hot replay fields lead.
//
// post marks a split word: actions[ip]'s access completed at or past the
// limit of a RunUntil, so its post — the compute cycles folded into it —
// is still to run, as its own event at the access's completion (see
// replay).
type coreState struct {
	task      *dag.Node
	actions   []trace.Action
	ip        int
	post      bool
	busy      int64
	taskStart int64 // dispatch cycle of the current task (timeline capture)
	rec       trace.Recorder
}

// Engine drives one program (one DAG) over a hierarchy. Multiprogramming
// experiments create several engines sharing one Hierarchy and alternate
// RunFor quanta.
type Engine struct {
	cfg   machine.Config
	g     *dag.Graph
	sched core.Scheduler
	hier  *cache.Hierarchy

	cores   []coreState
	nextAt  []int64 // per-core next event time
	order   []int64 // one eventKey per core, ascending, then a sentinel
	pending []int32
	done    int
	now     int64

	// Premature-node tracking (depth-first fidelity).
	doneByDF     []bool
	frontier     int
	outOfOrder   int
	maxPremature int

	// Aggregate counters.
	instructions int64
	idleCycles   int64
	dispatchCyc  int64

	// Engine telemetry, flushed to the sim_* totals once per Run: event
	// pops, private L1 hits replayed ahead of global order, rollbacks (one
	// per core rewound by an access) and the hits those undid.
	events         int64
	runAheadHits   int64
	rollbacks      int64
	rolledBackHits int64

	// CaptureTimeline, when set before Run, records one Span per executed
	// task in completion order — enough to reconstruct the whole schedule
	// as a Gantt chart (cmd/cmpsim -timeline emits it as CSV).
	CaptureTimeline bool
	Timeline        []Span
}

// Span is one task execution on one core.
type Span struct {
	Node  dag.NodeID
	Core  int
	Start int64 // dispatch cycle
	End   int64 // completion cycle
}

// New prepares an engine. The graph must be frozen. The hierarchy may be
// shared with other engines (multiprogramming); pass nil to have the engine
// build a private one from cfg.
func New(cfg machine.Config, g *dag.Graph, sched core.Scheduler, hier *cache.Hierarchy) *Engine {
	if !g.Frozen() {
		panic("sim: graph not frozen")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if hier == nil {
		hier = cache.New(cfg.CacheParams())
	}
	e := &Engine{
		cfg:      cfg,
		g:        g,
		sched:    sched,
		hier:     hier,
		cores:    make([]coreState, cfg.Cores),
		nextAt:   make([]int64, cfg.Cores),
		order:    make([]int64, cfg.Cores+1),
		pending:  g.InDegrees(),
		doneByDF: make([]bool, g.Len()),
	}
	e.order[cfg.Cores] = math.MaxInt64
	for i := range e.cores {
		e.order[i] = eventKey(0, i)
		if b, ok := recBufPool.Get().(*[]trace.Action); ok {
			e.cores[i].rec.Adopt(*b)
		}
	}
	sched.Reset(cfg.Cores, g)
	sched.Push(0, g.Root())
	return e
}

// recBufPool recycles trace.Recorder buffers across engines: a cold sweep
// builds one engine per cell, and without pooling every cell re-grows each
// core's action buffer from zero. Buffer capacity never affects simulation
// output, so pool nondeterminism is invisible.
var recBufPool sync.Pool

// Recycle returns the engine's recorder buffers to the shared pool. Call it
// once the engine is finished (after Result); the engine remains usable,
// its recorders simply re-grow from empty.
func (e *Engine) Recycle() {
	for i := range e.cores {
		b := e.cores[i].rec.Detach()
		if cap(b) > 0 {
			recBufPool.Put(&b)
		}
	}
}

// Hierarchy returns the engine's memory system.
func (e *Engine) Hierarchy() *cache.Hierarchy { return e.hier }

// Now returns the engine's current cycle.
func (e *Engine) Now() int64 { return e.now }

// Done reports whether every node has completed.
func (e *Engine) Done() bool { return e.done == e.g.Len() }

// Instructions returns dynamic instructions executed so far.
func (e *Engine) Instructions() int64 { return e.instructions }

// Run executes the whole DAG and returns the result record.
func (e *Engine) Run() metrics.Run {
	e.RunUntil(hardLimit)
	if !e.Done() {
		panic(fmt.Sprintf("sim: %d of %d nodes incomplete at hard limit — scheduler lost work",
			e.g.Len()-e.done, e.g.Len()))
	}
	r := e.Result()
	flushTelemetry(e)
	e.Recycle()
	return r
}

// runAheadWindow is how many cycles past bound a core may replay private L1
// hits ahead of global order (see replay). 64 one-cycle hits also fill the
// hierarchy's per-core undo log.
const runAheadWindow = 64

// eventKey packs a core's next event time above its id (machine.Validate
// caps cores at 64), so integer order on keys is the stepwise (time,
// core-id) order: the earliest event first, ties to the lowest core id.
func eventKey(at int64, c int) int64 { return at<<6 | int64(c) }

// RunUntil advances the simulation until every node is done or the clock
// reaches limit, whichever is first.
//
// order holds one eventKey per core, ascending, then a MaxInt64 sentinel:
// order[0] is the next event and order[1] is bound, the earliest next event
// of every other core (with no other core, the sentinel: far beyond any
// limit, even with the run-ahead window added). setNext keeps order sorted.
// The popped core then fuses further actions into the pop, first in exact
// order up to bound and then ahead of it (private-hit run-ahead, see replay).
func (e *Engine) RunUntil(limit int64) {
	for !e.Done() {
		c, t, bound := int(e.order[0]&63), e.order[0]>>6, e.order[1]>>6
		// Only the earliest event can end the run at limit. Check before
		// popping: it stays pending for a later RunUntil with a higher limit.
		if t >= limit {
			e.stop(limit)
			return
		}
		e.events++
		e.now = t
		// c's event is the global minimum, so no access that precedes its
		// run-ahead hits in stepwise order is still to come.
		e.hier.Commit(c)
		cs := &e.cores[c]
		if cs.task == nil {
			e.dispatch(c)
		} else if cs.ip < len(cs.actions) {
			e.replay(c, bound, limit)
		} else {
			e.complete(c)
			if e.Done() {
				e.stop(e.now)
				return
			}
		}
	}
}

// stop ends a RunUntil at cycle now. Every event before it has been
// processed, so all run-ahead hits (each started before limit) are final.
func (e *Engine) stop(now int64) {
	e.now = now
	e.hier.CommitAll()
}

// replay executes core c's actions from its event at e.now, fusing as many
// into this one pop as stepwise order allows, in two phases.
//
// Exact phase. The next action's event time is done; it is absorbed if it
// would be replayed within this call anyway (done < limit) and absorbing
// cannot reorder operations on state shared with other cores:
//   - a Compute touches only this core's clock and the instruction counter
//     (observed only at return), so it commutes with anything and always
//     fuses. So does a memory action's post, the Compute folded into its
//     word, which runs as soon as the access completes — unless that is at
//     or past limit. Stepwise order then leaves those cycles pending as
//     their own event, so the core stops on the split word with post set
//     and runs them first when it next pops;
//   - a memory action operates on the shared hierarchy and bus, whose
//     internal state (LRU clocks, bus queue) advances in call order, so it
//     fuses only when every other core's next event is strictly later
//     (done < bound) — then stepwise would have replayed it next, in
//     exactly this order.
//
// Run-ahead phase. Past bound, the core keeps going while each memory
// action is a private L1 hit (Hierarchy.RunAhead): such a hit touches
// only this core's L1, so it commutes with every other core's access except
// one that invalidates or downgrades the same way, and the hierarchy rolls
// it back at exactly those sites. Misses and upgrades end the phase; they,
// dispatch and complete stay in exact order.
// The core runs at most runAheadWindow cycles past bound: without that
// limit, memory-bound cells with small L2s ran measurably slower (see
// DESIGN.md).
//
// bound is the earliest next event of any OTHER core. Stepping c never
// delays another core's event; a rollback lowers bound to the rewound one's.
func (e *Engine) replay(c int, bound, limit int64) {
	hier := e.hier
	t := e.now
	cs := &e.cores[c]
	shift := hier.LineShift()
	// Local copies keep the fused loops free of repeated loads through cs
	// (the compiler cannot prove AccessLine leaves cs.actions and
	// e.instructions alone).
	actions := cs.actions
	ip := cs.ip
	instructions := int64(0)
	a := actions[ip]
	ip++
	// resume: a is a split word whose access completed at t; only its post
	// is left to run.
	resume, split := cs.post, false
	var done int64
	for {
		if a.Kind() == trace.Compute {
			done = t + a.N()
			instructions += a.N()
		} else {
			done = t
			if !resume {
				done = hier.AccessLine(c, a.Line(shift), a.Kind() == trace.Store, t)
				instructions++
				if hier.Rewound() != 0 {
					bound = e.rewind(bound)
				}
				if done >= limit && a.Post() != 0 {
					ip--
					split = true
					break
				}
			}
			resume = false
			done += a.Post()
			instructions += a.Post()
		}
		if ip >= len(actions) || done >= limit {
			break
		}
		next := actions[ip]
		if next.Kind() != trace.Compute && done >= bound {
			break
		}
		a = next
		ip++
		t = done
	}

	ip, done, n, hits, aheadSplit := hier.RunAhead(c, actions, ip, done, bound+runAheadWindow, limit)
	e.runAheadHits += hits
	instructions += n
	cs.ip = ip
	cs.post = split || aheadSplit
	cs.busy += done - e.now
	e.instructions += instructions
	e.setNext(c, done)
}

// rewind moves every core the hierarchy rolled back during the access just
// made to its earliest undone hit: ip, next-event time, busy cycles,
// instruction count. The new event time is never before the access's own.
// A rolled-back core that stopped on a split word ran that word's access,
// a hit at or after its earliest undone one, but not its post: only the
// access's instruction comes off. It returns bound lowered to the rewound
// cores' new event times.
func (e *Engine) rewind(bound int64) int64 {
	for m := e.hier.Rewound(); m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		at, ip, undone := e.hier.TakeRewind(c)
		cs := &e.cores[c]
		for _, a := range cs.actions[ip:cs.ip] {
			e.instructions -= a.Instructions()
		}
		if cs.post {
			e.instructions--
			cs.post = false
		}
		cs.ip = ip
		cs.busy -= e.nextAt[c] - at
		e.setNext(c, at)
		e.rollbacks++
		e.rolledBackHits += int64(undone)
		if at < bound {
			bound = at
		}
	}
	return bound
}

// setNext moves core c's next event to cycle at. It finds c's key in order
// (the popped core's is at the head) and moves it to its new place, shifting
// the keys in between by one; the sentinel stops the forward shift.
func (e *Engine) setNext(c int, at int64) {
	o, k := e.order, eventKey(at, c)
	i := 0
	for int(o[i]&63) != c {
		i++
	}
	for ; o[i+1] < k; i++ {
		o[i] = o[i+1]
	}
	for ; i > 0 && o[i-1] > k; i-- {
		o[i] = o[i-1]
	}
	o[i] = k
	e.nextAt[c] = at
}

// RunFor advances the simulation by delta cycles from the current clock.
func (e *Engine) RunFor(delta int64) { e.RunUntil(e.now + delta) }

// dispatch asks the scheduler for work for idle core c.
func (e *Engine) dispatch(c int) {
	cs := &e.cores[c]
	n, cost := e.sched.Pop(core.CoreID(c))
	e.dispatchCyc += cost
	if n == nil {
		wait := cost
		if e.cfg.IdleRetry > wait {
			wait = e.cfg.IdleRetry
		}
		e.idleCycles += wait
		e.setNext(c, e.now+wait)
		return
	}
	cs.task = n
	cs.taskStart = e.now
	cs.ip = 0
	cs.rec.Reset()
	if n.Run != nil {
		n.Run(&cs.rec)
	}
	cs.actions = cs.rec.Actions()
	e.setNext(c, e.now+cost+e.cfg.SpawnOverhead)
}

// complete finishes core c's task at e.now, releasing children.
func (e *Engine) complete(c int) {
	cs := &e.cores[c]
	n := cs.task
	cs.task = nil
	cs.actions = nil
	e.setNext(c, e.now)

	e.done++
	if e.CaptureTimeline {
		e.Timeline = append(e.Timeline, Span{Node: n.ID, Core: c, Start: cs.taskStart, End: e.now})
	}

	// Premature accounting: completions ahead of the sequential frontier.
	df := int(n.DF)
	e.doneByDF[df] = true
	if df == e.frontier {
		e.frontier++
		for e.frontier < len(e.doneByDF) && e.doneByDF[e.frontier] {
			e.frontier++
			e.outOfOrder--
		}
	} else {
		e.outOfOrder++
		if e.outOfOrder > e.maxPremature {
			e.maxPremature = e.outOfOrder
		}
	}

	// Release children in REVERSE spawn order (see core.Scheduler contract:
	// LIFO policies then surface the leftmost child first).
	kids := n.Children()
	for i := len(kids) - 1; i >= 0; i-- {
		k := kids[i]
		e.pending[k.ID]--
		if e.pending[k.ID] == 0 {
			e.sched.Push(core.CoreID(c), k)
		}
	}
}

// Result assembles the metrics record for the work completed so far.
func (e *Engine) Result() metrics.Run {
	r := metrics.Run{
		Scheduler:    e.sched.Name(),
		Cores:        e.cfg.Cores,
		Config:       e.cfg.Name,
		Cycles:       e.now,
		Instructions: e.instructions,
		Tasks:        int64(e.done),
		IdleCycles:   e.idleCycles,
		DispatchCyc:  e.dispatchCyc,
		MaxPremature: e.maxPremature,
	}
	for i := range e.cores {
		r.BusyCycles += e.cores[i].busy
		s := e.hier.L1(i).Stats
		r.L1Hits += s.Hits
		r.L1Misses += s.Misses
	}
	l2 := e.hier.L2().Stats
	r.L2Hits = l2.Hits
	r.L2Misses = l2.Misses
	r.L2Writebacks = l2.Writebacks
	bus := e.hier.Bus()
	r.OffchipTransfers = bus.Transfers
	r.OffchipBytes = bus.Bytes
	r.BusQueueCycles = bus.QueueCycles
	r.BusUtilization = bus.Utilization(e.now)
	ss := e.sched.Stats()
	r.Steals = ss.Steals
	r.StealProbes = ss.StealProbes
	r.FailedSteals = ss.FailedSteals
	return r
}
