// Package mem models the simulated machine's virtual address space.
//
// Workloads allocate named regions (arrays, matrices, temporaries) from a
// Space and translate element indices into simulated addresses. The cache
// hierarchy in internal/cache operates purely on these addresses; no host
// memory addresses ever leak into the simulation, so results are independent
// of the Go allocator and garbage collector.
//
// Multiprogramming experiments give each program its own Space with a
// distinct SpaceID; spaces are placed in disjoint address ranges so the
// shared L2 sees them as separate footprints, matching distinct processes on
// a real CMP.
package mem

import (
	"fmt"
	"reflect"
)

// Addr is a simulated virtual (equivalently, physical — the simulator does
// not model translation) byte address.
type Addr uint64

// SpaceID identifies an address space (a "process") in multiprogramming
// experiments.
type SpaceID uint8

// spaceShift positions each address space in its own 1 TiB-aligned region so
// that spaces can never alias in the cache.
const spaceShift = 40

// Allocation records one named region inside a Space, for debugging and for
// footprint accounting.
type Allocation struct {
	Name string
	Base Addr
	Size uint64
}

// Space is a bump allocator over a simulated address range. It is not safe
// for concurrent use; the simulator is single-threaded by design.
//
// A Space also underpins the workload layer's build-once/run-many lifecycle:
// the live Go slices backing its allocations register themselves via Track,
// Freeze captures their contents when construction finishes, and Reset
// restores that snapshot so a simulated run's mutations can be undone without
// rebuilding anything.
type Space struct {
	next    Addr
	allocs  []Allocation
	regions []region
	frozen  bool
}

// region is one tracked backing slice with snapshot/restore behavior.
type region interface {
	capture()
	restore()
	bytes() uint64
}

// sliceRegion implements region for a live backing slice of any element
// type. The snapshot is a whole-array copy: measured on this repository's
// instances (BenchmarkSpaceReset), restoring runs at memcpy speed — three
// orders of magnitude cheaper than rebuilding the workload that owns the
// space — so the bookkeeping a copy-on-first-write scheme would add to every
// recorded store is not worth its complexity.
type sliceRegion[T any] struct {
	live []T
	init []T
}

func (r *sliceRegion[T]) capture() { r.init = append([]T(nil), r.live...) }
func (r *sliceRegion[T]) restore() { copy(r.live, r.init) }
func (r *sliceRegion[T]) bytes() uint64 {
	var zero T
	return uint64(len(r.live)) * uint64(reflect.TypeOf(zero).Size())
}

// Track registers the live slice backing an allocation so Freeze/Reset can
// snapshot and restore it. The trace array constructors call this; only
// tracked data participates in Reset.
func Track[T any](s *Space, live []T) {
	if s.frozen {
		panic("mem: Track on frozen space")
	}
	s.regions = append(s.regions, &sliceRegion[T]{live: live})
}

// Freeze captures the current contents of every tracked slice as the
// space's initial state and seals the space: no further Alloc or Track.
// Workload builders call it once, after data generation.
func (s *Space) Freeze() {
	if s.frozen {
		panic("mem: Freeze on frozen space")
	}
	for _, r := range s.regions {
		r.capture()
	}
	s.frozen = true
}

// Frozen reports whether Freeze has been called.
func (s *Space) Frozen() bool { return s.frozen }

// Reset restores every tracked slice to the contents captured by Freeze,
// undoing all mutations a simulated run made to the space's data.
func (s *Space) Reset() {
	if !s.frozen {
		panic("mem: Reset before Freeze")
	}
	for _, r := range s.regions {
		r.restore()
	}
}

// TrackedBytes returns the total bytes of tracked backing slices — the cost
// of one snapshot (the same amount again lives in the frozen copies).
func (s *Space) TrackedBytes() uint64 {
	var total uint64
	for _, r := range s.regions {
		total += r.bytes()
	}
	return total
}

// NewSpace returns an empty address space in the address range of id.
func NewSpace(id SpaceID) *Space {
	base := Addr(uint64(id) << spaceShift)
	return &Space{next: base + 4096} // skip a null guard page
}

// Alloc reserves size bytes aligned to align (which must be a power of two;
// 0 means 64, a cache line) and returns the base address. Regions are padded
// so that distinct allocations never share a cache line, preventing false
// sharing artifacts the paper's benchmarks would not have had across arrays.
func (s *Space) Alloc(name string, size uint64, align uint64) Addr {
	if s.frozen {
		panic(fmt.Sprintf("mem: Alloc %q on frozen space", name))
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: Alloc %q alignment %d is not a power of two", name, align))
	}
	base := (s.next + Addr(align) - 1) &^ Addr(align-1)
	s.next = base + Addr((size+63)&^uint64(63)) // pad tail to a line
	s.allocs = append(s.allocs, Allocation{Name: name, Base: base, Size: size})
	return base
}

// Footprint returns the total bytes allocated in the space.
func (s *Space) Footprint() uint64 {
	var total uint64
	for _, a := range s.allocs {
		total += a.Size
	}
	return total
}

// Allocations returns a copy of the allocation table, in allocation order.
func (s *Space) Allocations() []Allocation {
	out := make([]Allocation, len(s.allocs))
	copy(out, s.allocs)
	return out
}

// SpaceOf reports which address space an address belongs to.
func SpaceOf(a Addr) SpaceID { return SpaceID(uint64(a) >> spaceShift) }
