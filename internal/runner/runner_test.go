package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// jobsReturningIndex builds n jobs whose results reveal which job produced
// them; later jobs finish earlier (the sleep is inversely proportional to
// the index) so completion order is the reverse of submit order.
func jobsReturningIndex(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i, nil
		}
	}
	return jobs
}

func TestMapPreservesSubmitOrder(t *testing.T) {
	for _, parallel := range []int{1, 2, runtime.GOMAXPROCS(0), 16} {
		parallel := parallel
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			out, err := Map(parallel, jobsReturningIndex(24))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i {
					t.Fatalf("out[%d] = %d: results not in submit order: %v", i, v, out)
				}
			}
		})
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// The jobs are pure functions of their index, so any parallelism level
	// must reproduce the serial output exactly.
	mk := func() []Job[string] {
		jobs := make([]Job[string], 40)
		for i := range jobs {
			i := i
			jobs[i] = func() (string, error) {
				return fmt.Sprintf("cell-%03d:%d", i, i*i), nil
			}
		}
		return jobs
	}
	serial, err := Map(1, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{2, runtime.GOMAXPROCS(0), 7} {
		par, err := Map(parallel, mk())
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("parallel=%d: %d results, serial had %d", parallel, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("parallel=%d: out[%d] = %q, serial %q", parallel, i, par[i], serial[i])
			}
		}
	}
}

func TestMapPropagatesCellError(t *testing.T) {
	boom := errors.New("cell failed")
	for _, parallel := range []int{1, 2, runtime.GOMAXPROCS(0), 8} {
		jobs := jobsReturningIndex(10)
		jobs[3] = func() (int, error) { return 0, boom }
		out, err := Map(parallel, jobs)
		if !errors.Is(err, boom) {
			t.Fatalf("parallel=%d: err = %v, want %v", parallel, err, boom)
		}
		if out != nil {
			t.Fatalf("parallel=%d: partial results returned alongside error", parallel)
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	// Two failing cells; the one later in submit order finishes first.
	// Yields happen in submit order, so the reported error must be the
	// lowest-indexed failure — deterministically, at any parallelism.
	early := errors.New("index 2")
	late := errors.New("index 7")
	for _, parallel := range []int{1, 4} {
		jobs := make([]Job[int], 10)
		for i := range jobs {
			i := i
			jobs[i] = func() (int, error) {
				switch i {
				case 2:
					time.Sleep(20 * time.Millisecond)
					return 0, early
				case 7:
					return 0, late
				default:
					return i, nil
				}
			}
		}
		if _, err := Map(parallel, jobs); !errors.Is(err, early) {
			t.Fatalf("parallel=%d: err = %v, want lowest-indexed %v", parallel, err, early)
		}
	}
}

func TestStreamYieldsInOrder(t *testing.T) {
	var got []int
	err := Stream(4, jobsReturningIndex(12), func(i int, v int, err error) error {
		if err != nil {
			return err
		}
		if i != v {
			t.Fatalf("yield(%d) got value %d", i, v)
		}
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("yield order %v not submit order", got)
		}
	}
	if len(got) != 12 {
		t.Fatalf("yield called %d times, want 12", len(got))
	}
}

func TestStreamStopsAfterYieldError(t *testing.T) {
	stop := errors.New("stop")
	var yields atomic.Int64
	var started atomic.Int64
	n := 64
	// Jobs past the first eight sleep, so most of the job list is still
	// unclaimed when cancellation lands. They must not wait for the yield
	// itself: yield runs on the calling goroutine, which also runs jobs, so
	// a job gated on a yield could be the one the caller is running. The
	// first eight jobs return at once, so the caller yields index 5 within a
	// job or two; for the assertion below to fail, the caller would have to
	// stay off-CPU for the tens of milliseconds it takes the helpers to chew
	// through ~50 sleeping jobs.
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = func() (int, error) {
			started.Add(1)
			if i > 7 {
				time.Sleep(5 * time.Millisecond)
			}
			return i, nil
		}
	}
	err := Stream(4, jobs, func(i int, v int, err error) error {
		yields.Add(1)
		if i == 5 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want %v", err, stop)
	}
	if got := yields.Load(); got != 6 {
		t.Fatalf("yield called %d times after cancel at index 5, want 6", got)
	}
	if got := started.Load(); got == int64(n) {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}
}

// trackConcurrency wraps a job list so each job records the number of jobs
// executing simultaneously, returning the high-water mark reader.
func trackConcurrency[T any](jobs []Job[T]) ([]Job[T], func() int64) {
	var cur, peak atomic.Int64
	wrapped := make([]Job[T], len(jobs))
	for i, job := range jobs {
		wrapped[i] = func() (T, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			defer cur.Add(-1)
			return job()
		}
	}
	return wrapped, peak.Load
}

// TestBudgetBoundsNestedFanout is the oversubscription regression test:
// an experiment-level fan-out whose jobs each fan out again must execute at
// most SetBudget(n) leaf jobs concurrently — not outer×inner — and must
// complete (nested fan-outs run on their callers alone instead of
// deadlocking when the outer level holds every token).
func TestBudgetBoundsNestedFanout(t *testing.T) {
	const cap = 3
	defer SetBudget(SetBudget(cap))

	leaf := func() []Job[int] {
		jobs := make([]Job[int], 6)
		for i := range jobs {
			jobs[i] = func() (int, error) {
				time.Sleep(time.Millisecond)
				return i, nil
			}
		}
		return jobs
	}
	var peaks []func() int64
	outer := make([]Job[int], 4)
	for i := range outer {
		jobs, peak := trackConcurrency(leaf())
		peaks = append(peaks, peak)
		outer[i] = func() (int, error) {
			out, err := Map(8, jobs)
			if err != nil {
				return 0, err
			}
			sum := 0
			for _, v := range out {
				sum += v
			}
			return sum, nil
		}
	}
	out, err := Map(8, outer)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 15 {
			t.Fatalf("outer[%d] = %d, want 15: nested results corrupted", i, v)
		}
	}
	var total int64
	for _, peak := range peaks {
		total += peak()
	}
	// Each inner fan-out's peak is bounded by the whole-process budget; the
	// sum across simultaneous inner fan-outs can still exceed it only if
	// tokens were over-issued. With 4 outer workers capped at 3 tokens, at
	// most 3 leaves execute at once anywhere, so no single peak may pass 3.
	for i, peak := range peaks {
		if p := peak(); p > cap {
			t.Fatalf("inner fan-out %d reached concurrency %d > budget %d", i, p, cap)
		}
	}
	if total == 0 {
		t.Fatal("concurrency tracking recorded nothing")
	}
}

// TestBudgetPromotionAfterRelease: a stream that started on an exhausted
// budget must pick up helpers once the holders release their tokens — the
// sweep-tail case where one long experiment should not stay serial while
// freed cores idle. The pickup is the ordinary top-up every worker runs
// before each claim, the caller included.
func TestBudgetPromotionAfterRelease(t *testing.T) {
	defer SetBudget(SetBudget(2))

	holderDone := make(chan struct{})
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	go func() {
		defer close(holderDone)
		// Two jobs on the holder's caller and its one helper: the helper
		// claims the budget's only token and holds it until released.
		_, err := Map(2, []Job[int]{
			func() (int, error) { started <- struct{}{}; <-release; return 0, nil },
			func() (int, error) { started <- struct{}{}; <-release; return 0, nil },
		})
		if err != nil {
			t.Error(err)
		}
	}()
	// Wait until both holder jobs run, so the helper owns the token and the
	// stream under test deterministically starts on its caller alone.
	<-started
	<-started

	jobs := make([]Job[int], 10)
	for i := range jobs {
		jobs[i] = func() (int, error) {
			if i == 0 {
				// First job frees the budget and waits for the holder to
				// hand its token back, so the caller's next top-up finds it.
				close(release)
				<-holderDone
			}
			time.Sleep(10 * time.Millisecond)
			return i, nil
		}
	}
	tracked, peak := trackConcurrency(jobs)
	out, err := Map(4, tracked)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("promotion broke submit order: %v", out)
		}
	}
	if p := peak(); p < 2 {
		t.Fatalf("stream never enlisted a helper after tokens freed (peak concurrency %d)", p)
	}
	if p := peak(); p > 2 {
		t.Fatalf("promotion exceeded the budget (peak concurrency %d)", p)
	}
}

// TestWorkerTopUpAfterRelease: a stream that started with fewer workers
// than requested (budget partially held elsewhere) must enlist more as
// tokens free up, instead of running its whole job list understaffed.
func TestWorkerTopUpAfterRelease(t *testing.T) {
	defer SetBudget(SetBudget(2))
	if !budget.tryAcquire() { // hold the one helper token of budget 2
		t.Fatal("could not take the setup token")
	}
	released := false
	jobs := make([]Job[int], 12)
	for i := range jobs {
		jobs[i] = func() (int, error) {
			if i == 0 {
				// First job hands the held token back: from here on the
				// stream should grow from its caller alone to two workers.
				released = true
				budget.release()
			}
			time.Sleep(10 * time.Millisecond)
			return i, nil
		}
	}
	tracked, peak := trackConcurrency(jobs)
	out, err := Map(4, tracked)
	if err != nil {
		t.Fatal(err)
	}
	if !released {
		budget.release() // keep the budget balanced even on assertion failure
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("top-up broke submit order: %v", out)
		}
	}
	if p := peak(); p < 2 {
		t.Fatalf("stream never topped up after a token freed (peak concurrency %d)", p)
	}
	if p := peak(); p > 2 {
		t.Fatalf("top-up exceeded the budget (peak concurrency %d)", p)
	}
}

// TestBudgetExhaustedRunsSerial: with a budget of 1, a nested Map finds no
// tokens and runs on its caller alone, preserving order.
func TestBudgetExhaustedRunsSerial(t *testing.T) {
	defer SetBudget(SetBudget(1))
	out, err := Map(4, []Job[[]int]{
		func() ([]int, error) { return Map(4, jobsReturningIndex(8)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out[0] {
		if v != i {
			t.Fatalf("nested serial fallback broke ordering: %v", out[0])
		}
	}
}

// TestSerialBudgetStartsNoGoroutine: at budget 1 the caller is the only
// worker, so a Map runs every job inline without starting a goroutine.
func TestSerialBudgetStartsNoGoroutine(t *testing.T) {
	defer SetBudget(SetBudget(1))
	// A helper of an earlier test's stream can still be exiting after that
	// stream returned (past its wg.Done). Wait until the count holds still
	// for a millisecond, so it counts this call's goroutines alone.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = func() (int, error) { return runtime.NumGoroutine(), nil }
	}
	out, err := Map(8, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range out {
		if g != before {
			t.Fatalf("job %d saw %d goroutines, %d before the call: budget 1 started a goroutine", i, g, before)
		}
	}
}

// TestBudgetReleased: workers hand their tokens back, so sequential Stream
// calls each get the full budget.
func TestBudgetReleased(t *testing.T) {
	defer SetBudget(SetBudget(2))
	for round := 0; round < 3; round++ {
		jobs, peak := trackConcurrency(jobsReturningIndex(8))
		if _, err := Map(8, jobs); err != nil {
			t.Fatal(err)
		}
		if p := peak(); p > 2 {
			t.Fatalf("round %d: concurrency %d exceeds budget 2 — tokens leaked?", round, p)
		}
		if p := peak(); p < 1 {
			t.Fatalf("round %d: nothing ran", round)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if out, err := Map[int](4, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty job list: out=%v err=%v", out, err)
	}
	// parallel <= 0 falls back to GOMAXPROCS rather than deadlocking.
	out, err := Map(0, jobsReturningIndex(3))
	if err != nil || len(out) != 3 {
		t.Fatalf("parallel=0: out=%v err=%v", out, err)
	}
	out, err = Map(-1, jobsReturningIndex(3))
	if err != nil || len(out) != 3 {
		t.Fatalf("parallel=-1: out=%v err=%v", out, err)
	}
}
