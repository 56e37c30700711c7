// Package runner executes independent simulation cells across a worker
// pool while preserving the canonical (submit-order) result sequence.
//
// The simulator is deterministic per (workload, scheduler, configuration,
// seed) tuple — see the internal/sim doc comment — so independent cells can
// fan out across host cores and still produce bit-identical results; only
// the order in which cells *complete* varies between runs. The runner hides
// that nondeterminism: results are always delivered in the order cells were
// submitted, never the order they finished, so every consumer (cmd/sweep,
// the sweepd job service via exp.RunGridStream, the exp tests, the
// benchmark harness) emits byte-identical output at any parallelism level.
//
// # Worker budget and help-first joining
//
// All Stream/Map calls in the process share one worker budget (default
// GOMAXPROCS; cmd/sweep sets it to -parallel via SetBudget). The goroutine
// that calls Stream is its worker zero: it runs jobs itself and enlists at
// most parallel-1 helpers, each holding a try-acquired budget token. The
// outermost Stream's driver holds the budget's one implicit slot, and a
// nested Stream's caller is already counted (the driver, or a helper
// running an outer job), so SetBudget(n) bounds the process at n
// job-running goroutines, not ~n². Every worker re-polls the budget before
// each claim, so a stream that started short-handed picks up helpers as
// sibling fan-outs wind down. Tokens are never waited for, and a caller
// waits only once every job is claimed, lending its token for that wait
// (Lend) — so nested fan-outs cannot deadlock.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A Job is one independent unit of work — in this repository, typically an
// exp.RunOne-shaped closure simulating one (config, workload, scheduler)
// cell.
type Job[T any] func() (T, error)

// budget is the process-wide cap on goroutines running jobs, shared by
// every Stream/Map call. The driver of the outermost Stream holds one slot
// implicitly; helpers try-acquire the other cap-1 as tokens and never wait
// for one, so a stream that finds none runs on its caller alone.
var budget = func() *semaphore {
	s := &semaphore{}
	s.freed.L = &s.mu
	s.cap.Store(int64(runtime.GOMAXPROCS(0)))
	return s
}()

type semaphore struct {
	cap   atomic.Int64
	inuse atomic.Int64
	mu    sync.Mutex
	freed sync.Cond // broadcast when a token is released or the cap changes
}

func (s *semaphore) tryAcquire() bool {
	for {
		u := s.inuse.Load()
		if u >= s.cap.Load()-1 {
			return false
		}
		if s.inuse.CompareAndSwap(u, u+1) {
			return true
		}
	}
}

func (s *semaphore) release() {
	s.inuse.Add(-1)
	s.wake()
}

// wake rouses every goroutine parked in acquire to retry. It takes the lock
// so a waiter between its failed poll and its Wait cannot miss the signal.
func (s *semaphore) wake() {
	s.mu.Lock()
	s.freed.Broadcast()
	s.mu.Unlock()
}

// acquire blocks until a token is free. Only Lend's reacquisition uses
// this; it wakes on every release and cap change.
func (s *semaphore) acquire() {
	s.mu.Lock()
	for !s.tryAcquire() {
		//repro:allow tokenhold Lend's reacquire: the caller released its token before its wait, so the parked goroutine holds none
		s.freed.Wait()
	}
	s.mu.Unlock()
}

// Lend releases the calling goroutine's budget token for the duration of
// wait, then reacquires one, so the core the caller was entitled to runs
// someone else's job instead of idling. Two waits need it: a Stream
// caller's wait for its helpers' last jobs, and an rcache singleflight
// waiter parked on the winning flight.
//
// Every goroutine that can reach Lend holds a token: a helper the one it
// acquired, the outermost driver its implicit slot. (Release and reacquire
// balance, so a goroutine outside every Stream may lend too; the budget
// runs one over for the wait.) wait must not itself call Lend, or the one
// token is released twice. Reacquisition cannot deadlock: every held token
// belongs to a goroutine running a job to completion, or parked in Lend
// having already released.
func Lend(wait func()) {
	budget.release()
	lends.Add(1)
	wait()
	budget.acquire()
}

// SetBudget caps the process-wide number of goroutines running jobs at n
// (floored at 1) and returns the previous cap, so callers can restore it.
// The goroutine driving the outermost Stream is one of the n, so n-1 tokens
// remain for helpers; at n == 1 every Stream runs inline on its caller.
// cmd/sweep sets this to -parallel: the experiment-level fan-out and every
// per-experiment cell fan-out then share the same N workers instead of
// multiplying into ~N² goroutines.
func SetBudget(n int) int {
	if n < 1 {
		n = 1
	}
	old := budget.cap.Swap(int64(n))
	budget.wake()
	return int(old)
}

// Stream executes jobs and calls yield exactly once per job, in submit
// order, as soon as the job and all of its predecessors have completed.
// The calling goroutine runs jobs itself, alongside at most parallel-1
// helpers drawn from the shared budget (parallel <= 0 means GOMAXPROCS);
// with parallel == 1 or no token free, no goroutine is started.
//
// yield runs only on the calling goroutine — between its own jobs, and
// while it waits for the last helpers — so a job must never wait for a
// yield. yield receives the job's index, value, and error. If yield
// returns a non-nil error, no further jobs are started and no further
// yields happen; Stream drains in-flight work and returns that error. Job
// errors are not fatal to the pool — they are handed to yield, which
// decides.
func Stream[T any](parallel int, jobs []Job[T], yield func(i int, v T, err error) error) error {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	queued.Add(int64(n)) // run drains it once per index: claimed, run or skipped

	type result struct {
		v   T
		err error
	}
	// One buffered slot per job: workers never block on delivery, and the
	// caller reorders simply by reading slots 0..n-1 in sequence.
	slots := make([]chan result, n)
	for i := range slots {
		slots[i] = make(chan result, 1)
	}

	var (
		next      atomic.Int64 // next job index to claim
		cancelled atomic.Bool  // set once yield fails; stops new work
		active    atomic.Int64 // goroutines running jobs, capped at parallel
		wg        sync.WaitGroup
	)
	active.Store(1) // the caller
	var helper func()
	// run is one worker step, for the caller and helpers alike: top up,
	// then claim and run one job. It reports false once all are claimed.
	run := func() bool {
		// Top up: if under the cap with jobs still unclaimed and a budget
		// token free, enlist a helper. The count is reserved before the
		// token so two racers cannot both pass the cap; either reservation
		// that fails is rolled back.
		if !cancelled.Load() && int(next.Load()) < n-1 {
			if a := active.Add(1); int(a) <= parallel && budget.tryAcquire() {
				wg.Add(1)
				go helper()
			} else {
				active.Add(-1)
			}
		}
		i := int(next.Add(1)) - 1
		if i >= n {
			return false
		}
		if cancelled.Load() {
			skipJob()
			slots[i] <- result{} // still fill the slot so the drain never blocks
			return true
		}
		claimJob()
		v, err := jobs[i]()
		finishJob()
		slots[i] <- result{v, err}
		return true
	}
	helper = func() {
		defer wg.Done()
		defer budget.release()
		defer active.Add(-1)
		for run() {
		}
	}

	y := 0 // next index to yield
	var yerr error
	deliver := func(r result) {
		if yerr == nil {
			if yerr = yield(y, r.v, r.err); yerr != nil {
				cancelled.Store(true)
			}
		}
		y++
	}
	for run() {
		// Yield the ready in-order prefix without waiting: the caller never
		// waits for a helper's result while it could run a job.
	ready:
		for y < n {
			select {
			case r := <-slots[y]:
				deliver(r)
			default:
				break ready
			}
		}
	}
	if y < n {
		// Every job is claimed and helpers still run some: nothing is left
		// for the caller to run, so it lends its token while it waits.
		Lend(func() {
			for y < n {
				deliver(<-slots[y])
			}
		})
	}
	//repro:allow tokenhold bounded drain: every slot has been received, so all workers are past their last job and exiting; the wait is O(defer) and releases the tokens
	wg.Wait()
	return yerr
}

// Map executes jobs on the caller and up to parallel-1 budget helpers and
// returns their results in submit order. The first job error (by submit
// order, which is deterministic regardless of completion order) aborts the
// pool: unstarted jobs are skipped, in-flight jobs drain, and Map returns
// that error with a nil slice.
func Map[T any](parallel int, jobs []Job[T]) ([]T, error) {
	out := make([]T, len(jobs))
	err := Stream(parallel, jobs, func(i int, v T, err error) error {
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
