package rcache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// TestNestedSingleflightLendDoesNotHang is a bounded-time check on the two
// lends of the worker budget: a Map whose jobs each run a nested Map, two of
// whose nested streams ask one store for the same key, so a singleflight
// waiter lends its token while nested callers lend theirs waiting for
// their helpers. Every budget must finish — with the right values and no
// token leaked — well inside the timer instead of hanging.
func TestNestedSingleflightLendDoesNotHang(t *testing.T) {
	for _, budget := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			defer runner.SetBudget(runner.SetBudget(budget))
			done := make(chan error, 1)
			go func() { done <- nestedSharedKey(budget) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("nested fan-out with a shared singleflight key hung for 10s")
			}
			if inuse := runner.Snapshot().TokensInUse; inuse != 0 {
				t.Fatalf("tokens leaked: %d still in use after every stream returned", inuse)
			}
		})
	}
}

// nestedSharedKey runs four outer jobs of four nested jobs each; the first
// nested job of outer jobs 0 and 1 asks for the same key. Above budget 1 the
// two outer jobs run at once, and the flight is held open until the other
// request has joined it as a waiter (or a second has passed), so the wait
// really happens.
func nestedSharedKey(budget int) error {
	s := NewMemory()
	want := testRun()
	compute := func() (metrics.Run, error) {
		deadline := time.Now().Add(time.Second)
		for budget > 1 && s.Stats().Dedup == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return want, nil
	}
	outer := make([]runner.Job[int], 4)
	for o := range outer {
		nested := make([]runner.Job[int], 4)
		for i := range nested {
			nested[i] = func() (int, error) {
				if o < 2 && i == 0 {
					r, err := s.Do(Key{9}, compute)
					if err != nil || r != want {
						return 0, fmt.Errorf("outer %d: shared key gave %+v, %v", o, r, err)
					}
				}
				time.Sleep(time.Millisecond)
				return o*10 + i, nil
			}
		}
		outer[o] = func() (int, error) {
			vals, err := runner.Map(3, nested)
			if err != nil {
				return 0, err
			}
			sum := 0
			for _, v := range vals {
				sum += v
			}
			return sum, nil
		}
	}
	sums, err := runner.Map(4, outer)
	if err != nil {
		return err
	}
	for o, sum := range sums {
		if want := 40*o + 6; sum != want {
			return fmt.Errorf("outer %d: nested sum %d, want %d", o, sum, want)
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		return fmt.Errorf("shared key computed %d times, want 1", st.Misses)
	}
	if budget > 1 && st.Dedup != 1 {
		return fmt.Errorf("shared key had %d singleflight waiters, want 1", st.Dedup)
	}
	return nil
}
