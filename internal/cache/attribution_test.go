package cache

import (
	"testing"

	"repro/internal/mem"
)

func TestAttributionClassifiesTraffic(t *testing.T) {
	h := New(smallParams(1))
	sp := mem.NewSpace(0)
	a := uint64(sp.Alloc("hot", 4096, 0)) >> 6
	b := uint64(sp.Alloc("cold", 4096, 0)) >> 6
	attr := h.EnableAttribution(sp)

	now := int64(0)
	for i := 0; i < 64; i++ { // 64 lines of "hot"
		now = h.AccessLine(0, a+uint64(i), false, now)
	}
	for i := 0; i < 16; i++ { // 16 lines of "cold"
		now = h.AccessLine(0, b+uint64(i), false, now)
	}
	rep := attr.Report()
	if len(rep) != 2 {
		t.Fatalf("report rows = %d: %+v", len(rep), rep)
	}
	if rep[0].Name != "hot" || rep[0].MissBytes != 64*64 {
		t.Fatalf("hot row wrong: %+v", rep[0])
	}
	if rep[1].Name != "cold" || rep[1].MissBytes != 16*64 {
		t.Fatalf("cold row wrong: %+v", rep[1])
	}
}

func TestAttributionCountsWritebacks(t *testing.T) {
	p := smallParams(1)
	h := New(p)
	sp := mem.NewSpace(0)
	a := uint64(sp.Alloc("dirty", 64, 0)) >> 6
	attr := h.EnableAttribution(sp)

	now := h.AccessLine(0, a, true, 0) // dirty the line
	// Stream unattributed addresses through to evict it from L2.
	nLines := 2 * int(p.L2Size) / p.LineSize
	base := uint64(sp.Alloc("stream", uint64(nLines*64), 0)) >> 6
	for i := 0; i < nLines; i++ {
		now = h.AccessLine(0, base+uint64(i), false, now)
	}
	var dirtyBytes int64
	for _, e := range attr.Report() {
		if e.Name == "dirty" {
			dirtyBytes = e.MissBytes
		}
	}
	// One fill + one writeback of the same line.
	if dirtyBytes != 128 {
		t.Fatalf("dirty array bytes = %d, want 128 (fill + writeback)", dirtyBytes)
	}
}

func TestAttributionOther(t *testing.T) {
	h := New(smallParams(1))
	sp := mem.NewSpace(0)
	sp.Alloc("only", 64, 0)
	attr := h.EnableAttribution(sp)
	// A line outside any allocation.
	h.AccessLine(0, 1<<24, false, 0)
	rep := attr.Report()
	if len(rep) != 1 || rep[0].Name != "(other)" || rep[0].MissBytes != 64 {
		t.Fatalf("other row wrong: %+v", rep)
	}
}

func TestAttributionMultipleSpaces(t *testing.T) {
	h := New(smallParams(1))
	s0 := mem.NewSpace(0)
	s1 := mem.NewSpace(1)
	a := uint64(s0.Alloc("a", 64, 0)) >> 6
	b := uint64(s1.Alloc("b", 64, 0)) >> 6
	attr := h.EnableAttribution(s0, s1)
	now := h.AccessLine(0, a, false, 0)
	h.AccessLine(0, b, false, now)
	rep := attr.Report()
	if len(rep) != 2 {
		t.Fatalf("want two rows, got %+v", rep)
	}
}
