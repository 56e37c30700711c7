package workloads

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// TestSpecFingerprintCoversEveryField mirrors the machine.Config guard: a
// Spec field missing from Fingerprint would let two different workloads
// alias one result-cache entry. Perturbing every field by reflection fails
// the build the moment such a field is added.
func TestSpecFingerprintCoversEveryField(t *testing.T) {
	base := Spec{Name: "mergesort", N: 1 << 14, Grain: 1024, Iters: 2, Seed: 7, SpaceID: 1}
	ref := base.Fingerprint()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		mod := base
		testutil.PerturbField(t, reflect.ValueOf(&mod).Elem().Field(i))
		if mod.Fingerprint() == ref {
			t.Errorf("Spec.Fingerprint ignores field %s — cache entries would alias", typ.Field(i).Name)
		}
	}
}

// TestSpecStringCoversEveryField guards the human-readable form the same
// way: String feeds labels and diagnostics, and a field it omits (SpaceID
// was the bug — multiprogramming arms in different address spaces rendered
// identically) makes distinct specs indistinguishable in output.
func TestSpecStringCoversEveryField(t *testing.T) {
	base := Spec{Name: "mergesort", N: 1 << 14, Grain: 1024, Iters: 2, Seed: 7, SpaceID: 1}
	ref := base.String()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		mod := base
		testutil.PerturbField(t, reflect.ValueOf(&mod).Elem().Field(i))
		if mod.String() == ref {
			t.Errorf("Spec.String ignores field %s — distinct specs render identically", typ.Field(i).Name)
		}
	}
}

// TestSpecFingerprintMatchesFmtSpelling pins Fingerprint to the fmt
// spelling every existing result-cache key was hashed from, across each
// one-field perturbation of a spec and a spec with awkward values.
func TestSpecFingerprintMatchesFmtSpelling(t *testing.T) {
	base := Spec{Name: "mergesort", N: 1 << 14, Grain: 1024, Iters: 2, Seed: 7, SpaceID: 1}
	specs := []Spec{base, {},
		{Name: "q\"uo\\te\td \xff ü", N: -1, Grain: math.MaxInt64, Iters: math.MinInt64, Seed: math.MaxUint64, SpaceID: 255}}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		mod := base
		testutil.PerturbField(t, reflect.ValueOf(&mod).Elem().Field(i))
		specs = append(specs, mod)
	}
	for _, s := range specs {
		want := fmt.Sprintf("workloads.Spec{Name=%q N=%d Grain=%d Iters=%d Seed=%d SpaceID=%d}",
			s.Name, s.N, s.Grain, s.Iters, s.Seed, s.SpaceID)
		if got := s.Fingerprint(); got != want {
			t.Errorf("Fingerprint\n got %s\nwant %s", got, want)
		}
	}
}

func TestSpecFingerprintStable(t *testing.T) {
	a := Spec{Name: "fft", N: 4096, Grain: 256, Seed: 3}
	b := Spec{Name: "fft", N: 4096, Grain: 256, Seed: 3}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal specs, unequal fingerprints:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
}

// TestSpecValidate pins the user-input gate: anything Validate accepts
// must Build without panicking, and the shape constraints Build enforces
// (fft/matmul power-of-two, lu tile divisibility) must be caught here —
// cmpsim and sweep grids rely on "validated specs never panic".
func TestSpecValidate(t *testing.T) {
	valid := []Spec{
		{Name: "mergesort", N: 4096, Grain: 256},
		{Name: "fft", N: 1024, Grain: 256},
		{Name: "matmul", N: 64, Grain: 256},
		{Name: "lu", N: 192, Grain: 256},
		{Name: "spmv", N: 4096, Grain: 256, Iters: 2},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", s, err)
			continue
		}
		Build(s) // must not panic
	}
	invalid := []Spec{
		{Name: "nope", N: 4096, Grain: 256},
		{Name: "mergesort", N: 0, Grain: 256},
		{Name: "mergesort", N: 4096, Grain: 0},
		{Name: "mergesort", N: 4096, Grain: 256, Iters: -1},
		{Name: "fft", N: 1000, Grain: 256},
		{Name: "fft", N: 1, Grain: 256},
		{Name: "matmul", N: 192, Grain: 256},
		{Name: "lu", N: 100, Grain: 256},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%v: Validate accepted an invalid spec", s)
		}
	}
}
