package runner

import (
	"testing"
	"time"
)

// TestLendReleasesWorkerToken: a worker that lends around a blocking wait
// must leave its token claimable by others for the duration, and hold it
// again afterwards.
func TestLendReleasesWorkerToken(t *testing.T) {
	defer SetBudget(SetBudget(1))

	release := make(chan struct{})
	lent := make(chan struct{})
	resumed := false

	jobs := []Job[int]{
		func() (int, error) {
			Lend(func() {
				lent <- struct{}{}
				<-release
			})
			// Back from the lend: the token has been reacquired.
			resumed = true
			return 0, nil
		},
		func() (int, error) { return 1, nil },
	}

	done := make(chan error, 1)
	go func() {
		// Budget 1: this goroutine drives the stream alone, holding the
		// budget's one slot, so the lend is the only way to free it.
		_, err := Map(2, jobs)
		done <- err
	}()

	select {
	case <-lent:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached its lend")
	}
	// The driver is parked inside Lend. With a budget cap of 1, its slot
	// was the only one; the lend must have freed it.
	if !budget.tryAcquire() {
		t.Fatal("token not released during Lend")
	}
	budget.release()
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not finish after the lend resumed")
	}
	if !resumed {
		t.Fatal("worker did not resume after its lend")
	}
	if lends := Snapshot().Lends; lends < 1 {
		t.Fatalf("lend not counted: %d", lends)
	}
}

// TestLendFundsNestedFanout: a nested Stream's caller that has claimed
// every job lends its token back to the pool while its helper finishes the
// tail. The nested caller claims job 0 — it enlists its helper with a go
// statement and claims at once, before the helper is scheduled — so the
// helper runs job 1. Job 0 returns only once job 1 is running, leaving the
// caller with nothing to claim, and job 1 blocks until the lends counter
// ticks, so the stream can only finish if the caller's tail really lent.
func TestLendFundsNestedFanout(t *testing.T) {
	defer SetBudget(SetBudget(3))
	lendsBefore := Snapshot().Lends

	tailRunning := make(chan struct{})
	first := func() (int, error) {
		select {
		case <-tailRunning:
			return 1, nil
		case <-time.After(10 * time.Second):
			return 0, nil
		}
	}
	waitForLend := func() (int, error) {
		close(tailRunning)
		deadline := time.Now().Add(10 * time.Second)
		for Snapshot().Lends == lendsBefore {
			if time.Now().After(deadline) {
				return 0, nil
			}
			time.Sleep(time.Millisecond)
		}
		return 1, nil
	}

	// A single outer job runs on the outer caller, which has nothing else
	// to wait for, so the nested caller's tail is the only lend here.
	outer := []Job[int]{
		func() (int, error) {
			vals, err := Map(2, []Job[int]{first, waitForLend})
			if err != nil {
				return 0, err
			}
			return vals[0] + vals[1]*10, nil
		},
	}

	vals, err := Map(2, outer)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if vals[0]%10 != 1 {
		t.Fatal("nested job 0 never saw job 1 running: the nested stream never enlisted a helper")
	}
	if vals[0]/10 != 1 {
		t.Fatal("lends counter never ticked during the nested stream: the caller's tail did not lend its token")
	}
	if inuse := Snapshot().TokensInUse; inuse != 0 {
		t.Fatalf("tokens leaked: %d still in use after all streams returned", inuse)
	}
}

// TestLendReacquireWakesOnBudgetRaise: a Lend whose token is taken during
// its wait parks in the reacquire, and raising the cap with SetBudget must
// wake it — no release ever comes.
func TestLendReacquireWakesOnBudgetRaise(t *testing.T) {
	defer SetBudget(SetBudget(1))

	taken := make(chan bool, 1)
	returned := make(chan struct{})
	go func() {
		Lend(func() { taken <- budget.tryAcquire() })
		close(returned)
	}()
	if !<-taken {
		t.Fatal("the lent token could not be taken")
	}
	defer budget.release()
	select {
	case <-returned:
		t.Fatal("Lend reacquired with every token held")
	case <-time.After(20 * time.Millisecond):
	}
	SetBudget(2)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("parked reacquire not woken by SetBudget raising the cap")
	}
}
