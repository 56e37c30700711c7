// Package tokenwaits exercises tokenhold's blocking-wait rule. The harness
// lists this package in TokenPackages: code here runs while worker-budget
// tokens are held, so parking the goroutine parks a token.
package tokenwaits

import (
	"sync"

	"repro/internal/runner"
)

func recv(ch chan int) int {
	return <-ch // want `blocking channel receive on the worker-budget path`
}

func race(a, b chan int) {
	select { // want `select without default blocks on the worker-budget path`
	case a <- 1:
	case b <- 2:
	}
}

// A select with a default never blocks. Clean.
func poll(a chan int) bool {
	select {
	case a <- 1:
		return true
	default:
		return false
	}
}

// A receive in the comm clause of a select with a default is a poll, not a
// wait. Clean.
func pollRecv(a chan int, b chan bool) (int, bool) {
	select {
	case v := <-a:
		return v, true
	case <-b:
		return 0, true
	default:
		return 0, false
	}
}

func wait(wg *sync.WaitGroup) {
	wg.Wait() // want `sync wg\.Wait blocks on the worker-budget path`
}

func condWait(c *sync.Cond) {
	c.Wait() // want `sync c\.Wait blocks on the worker-budget path`
}

// The audited-debt pattern: a wait that provably holds no token carries a
// //repro:allow with the reason. The harness runs with unused-allow
// reporting on, so the annotation must really be consumed.
func drain(wg *sync.WaitGroup) {
	//repro:allow tokenhold shutdown drain after every worker has exited; no budget token is held here
	wg.Wait()
}

// A wait wrapped in a function literal passed to runner.Lend is the lend
// protocol itself: the token is released before the wait runs and
// reacquired after, so the parked goroutine holds nothing. Clean, no allow
// needed.
func lent(ch chan int) (v int) {
	runner.Lend(func() { v = <-ch })
	return v
}

// All wait forms are sanctioned inside the lent literal, including nested
// closures within it.
func lentAll(wg *sync.WaitGroup, a, b chan int) {
	runner.Lend(func() {
		wg.Wait()
		select {
		case <-a:
		case <-b:
		}
		func() { <-a }()
	})
}

// Only the function-literal argument is sanctioned: a wait evaluated while
// building Lend's arguments runs before Lend is entered, token still held.
func lentArgEval(ch chan int, waits []func()) {
	runner.Lend(waits[<-ch]) // want `blocking channel receive on the worker-budget path`
}

// Wait methods from other packages (not sync) are not flagged.
type group struct{}

func (group) Wait() {}

func other(g group) { g.Wait() }
