package cache

import (
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// benchParams is a realistic mid-size geometry (32 KiB 8-way L1s, 1 MiB
// 16-way shared L2) so the hit/miss mixes below exercise the same code
// paths the experiments do.
func benchParams(cores int) Params {
	return Params{
		Cores:    cores,
		LineSize: 64,
		L1Size:   32 << 10,
		L1Ways:   8,
		L2Size:   1 << 20,
		L2Ways:   16,
		BusBPC:   8,
		Lat:      Latencies{L1: 1, L2: 15, Mem: 200},
	}
}

// BenchmarkAccessLine pins the per-access cost of the hierarchy's single-
// line fast path across the interesting mixes: hinted L1 hits (one
// stream and two alternating streams in one set), L1 misses that hit L2,
// cold off-chip misses, and a two-core coherence ping-pong — plus
// runahead-hit, one hinted read hit and its post replayed through RunAhead.
func BenchmarkAccessLine(b *testing.B) {
	b.Run("l1hit-read", func(b *testing.B) {
		h := New(benchParams(1))
		b.ReportAllocs()
		now := int64(0)
		for i := 0; i < b.N; i++ {
			// Four tags in four different sets: every access after the
			// first four is a hinted read hit.
			now = h.AccessLine(0, uint64(i&3), false, now)
		}
		sinkCycles = now
	})
	b.Run("l1hit-samepair", func(b *testing.B) {
		h := New(benchParams(1))
		sets := h.l1[0].numSets
		b.ReportAllocs()
		now := int64(0)
		for i := 0; i < b.N; i++ {
			// Two tags in the SAME set, alternating — the mix that defeats
			// a one-entry hint and lands on the hint's second entry.
			now = h.AccessLine(0, uint64((i&1)*sets), false, now)
		}
		sinkCycles = now
	})
	b.Run("l1hit-write", func(b *testing.B) {
		h := New(benchParams(1))
		b.ReportAllocs()
		now := int64(0)
		for i := 0; i < b.N; i++ {
			// Exclusive write hits after the first round.
			now = h.AccessLine(0, uint64(i&3), true, now)
		}
		sinkCycles = now
	})
	b.Run("runahead-hit", func(b *testing.B) {
		h := New(benchParams(1))
		// One full log of read hits on four resident lines in four sets,
		// each carrying trailing compute cycles in its post, as most
		// recorded loads do, replayed and committed batch by batch: one op
		// is one hit.
		var r trace.Recorder
		for i := 0; i < logCap; i++ {
			r.Load(mem.Addr(uint64(i&3) << h.LineShift()))
			r.Compute(1 + i&1)
		}
		acts := r.Actions()
		for tag := uint64(0); tag < 4; tag++ {
			h.AccessLine(0, tag, false, 0)
		}
		b.ReportAllocs()
		now := int64(0)
		for n := 0; n < b.N; n += logCap {
			_, now, _, _, _ = h.RunAhead(0, acts[:min(logCap, b.N-n)], 0, now, math.MaxInt64, math.MaxInt64)
			h.Commit(0)
		}
		sinkCycles = now
	})
	b.Run("l1miss-l2hit", func(b *testing.B) {
		h := New(benchParams(1))
		lines := int(benchParams(1).L1Size) / benchParams(1).LineSize * 4 // 4x L1 capacity, well under L2
		b.ReportAllocs()
		now := int64(0)
		for i := 0; i < b.N; i++ {
			now = h.AccessLine(0, uint64(i%lines), false, now)
		}
		sinkCycles = now
	})
	b.Run("l2miss", func(b *testing.B) {
		h := New(benchParams(1))
		b.ReportAllocs()
		now := int64(0)
		for i := 0; i < b.N; i++ {
			// A fresh tag every access: cold L1+L2 misses, bus transfer,
			// off-chip fill, L2 victim eviction once the cache is full.
			now = h.AccessLine(0, uint64(i)+(1<<32), false, now)
		}
		sinkCycles = now
	})
	b.Run("coherence-pingpong", func(b *testing.B) {
		h := New(benchParams(2))
		b.ReportAllocs()
		now := int64(0)
		for i := 0; i < b.N; i++ {
			// Two cores alternately writing one line: every access after
			// the first invalidates the other core's copy via the
			// directory and refills.
			now = h.AccessLine(i&1, 42, true, now)
		}
		sinkCycles = now
	})
}

var sinkCycles int64
