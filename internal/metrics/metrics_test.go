package metrics

import "testing"

func TestL2MPKI(t *testing.T) {
	r := Run{Instructions: 2000, L2Misses: 3}
	if got := r.L2MPKI(); got != 1.5 {
		t.Fatalf("MPKI = %v, want 1.5", got)
	}
	var zero Run
	if zero.L2MPKI() != 0 {
		t.Fatal("zero-instruction MPKI should be 0")
	}
}

func TestL1MPKI(t *testing.T) {
	r := Run{Instructions: 1000, L1Misses: 7}
	if r.L1MPKI() != 7 {
		t.Fatalf("L1 MPKI = %v", r.L1MPKI())
	}
}

func TestUtilization(t *testing.T) {
	r := Run{Cores: 4, Cycles: 100, BusyCycles: 200}
	if got := r.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	var zero Run
	if zero.Utilization() != 0 {
		t.Fatal("zero utilization should be 0")
	}
}

func TestStringNonEmpty(t *testing.T) {
	r := Run{Workload: "mergesort", Scheduler: "pdf", Cores: 8}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}
