package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	s := NewSpace(0)
	a := s.Alloc("a", 100, 0)
	if a%64 != 0 {
		t.Fatalf("default alignment violated: %x", a)
	}
	b := s.Alloc("b", 1, 4096)
	if b%4096 != 0 {
		t.Fatalf("4096 alignment violated: %x", b)
	}
}

func TestAllocNoOverlapNoSharedLine(t *testing.T) {
	s := NewSpace(0)
	var prevEnd Addr
	for i := 0; i < 50; i++ {
		base := s.Alloc("x", uint64(i*7+1), 0)
		if base < prevEnd {
			t.Fatalf("allocation %d overlaps previous (base %x < prev end %x)", i, base, prevEnd)
		}
		if prevEnd != 0 && base&^63 < prevEnd {
			t.Fatalf("allocation %d shares a line with previous", i)
		}
		prevEnd = base + Addr(uint64(i*7+1))
	}
}

func TestAllocBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two alignment did not panic")
		}
	}()
	NewSpace(0).Alloc("bad", 8, 3)
}

func TestSpacesDisjoint(t *testing.T) {
	s0 := NewSpace(0)
	s1 := NewSpace(1)
	a0 := s0.Alloc("a", 1<<20, 0)
	a1 := s1.Alloc("a", 1<<20, 0)
	if SpaceOf(a0) != 0 || SpaceOf(a1) != 1 {
		t.Fatalf("SpaceOf wrong: %d %d", SpaceOf(a0), SpaceOf(a1))
	}
	if a0+1<<20 > a1 && a1+1<<20 > a0 {
		t.Fatal("spaces overlap")
	}
}

func TestSpaceOfRoundTrip(t *testing.T) {
	if err := quick.Check(func(id uint8, off uint32) bool {
		s := NewSpace(SpaceID(id))
		a := s.Alloc("x", uint64(off)+1, 0)
		return SpaceOf(a) == SpaceID(id)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintAndAllocations(t *testing.T) {
	s := NewSpace(2)
	s.Alloc("keys", 1000, 0)
	s.Alloc("tmp", 24, 0)
	if got := s.Footprint(); got != 1024 {
		t.Fatalf("footprint = %d, want 1024", got)
	}
	allocs := s.Allocations()
	if len(allocs) != 2 || allocs[0].Name != "keys" || allocs[1].Name != "tmp" {
		t.Fatalf("allocations table wrong: %+v", allocs)
	}
}

func TestNullGuard(t *testing.T) {
	s := NewSpace(0)
	if a := s.Alloc("first", 8, 0); a == 0 {
		t.Fatal("first allocation landed on address 0")
	}
}

// --- Snapshot / restore ------------------------------------------------------

func TestFreezeResetRestoresTrackedSlices(t *testing.T) {
	s := NewSpace(0)
	s.Alloc("ints", 8*4, 0)
	ints := []int64{1, 2, 3, 4}
	Track(s, ints)
	s.Alloc("floats", 8*3, 0)
	floats := []float64{0.5, 1.5, 2.5}
	Track(s, floats)
	s.Freeze()
	if !s.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}

	for i := range ints {
		ints[i] = -int64(i)
	}
	floats[1] = 99

	s.Reset()
	if ints[0] != 1 || ints[3] != 4 {
		t.Fatalf("ints not restored: %v", ints)
	}
	if floats[1] != 1.5 {
		t.Fatalf("floats not restored: %v", floats)
	}

	// Reset is repeatable: mutate and restore again.
	ints[2] = 7
	s.Reset()
	if ints[2] != 3 {
		t.Fatalf("second Reset did not restore: %v", ints)
	}
}

func TestTrackedBytes(t *testing.T) {
	s := NewSpace(0)
	Track(s, make([]int64, 10))
	Track(s, make([]int32, 10))
	if got := s.TrackedBytes(); got != 10*8+10*4 {
		t.Fatalf("TrackedBytes = %d, want %d", got, 10*8+10*4)
	}
}

func TestResetBeforeFreezePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset before Freeze did not panic")
		}
	}()
	NewSpace(0).Reset()
}

func TestFrozenSpaceSealed(t *testing.T) {
	s := NewSpace(0)
	s.Freeze()
	for name, f := range map[string]func(){
		"Alloc":  func() { s.Alloc("late", 8, 0) },
		"Track":  func() { Track(s, []int64{1}) },
		"Freeze": func() { s.Freeze() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on frozen space did not panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkSpaceReset measures restoring a typical instance-sized space
// (8 MiB of tracked arrays — fig1's full-size mergesort). This is the
// number that justifies whole-array snapshots over copy-on-first-write:
// restore runs at memcpy speed, orders of magnitude below the cost of
// rebuilding the workload that owns the space.
func BenchmarkSpaceReset(b *testing.B) {
	s := NewSpace(0)
	a1 := make([]int64, 1<<19)
	a2 := make([]int64, 1<<19)
	Track(s, a1)
	Track(s, a2)
	s.Freeze()
	b.SetBytes(int64(s.TrackedBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a1[i&((1<<19)-1)]++ // dirty something so the copy is not elided
		s.Reset()
	}
}
