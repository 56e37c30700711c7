package cache

// Bus models the finite off-chip bandwidth that makes the paper's
// "bandwidth-limited" benchmark class bandwidth-limited. Every off-chip
// transfer (miss fill or dirty writeback) occupies the bus for
// lineSize/bytesPerCycle cycles; concurrent requests queue FIFO. DRAM access
// latency itself is pipelined (multiple outstanding misses overlap their
// latency, but never their bus occupancy), which is the standard bandwidth
// bottleneck abstraction.
type Bus struct {
	bytesPerCycle float64
	microBPC      int64 // bandwidth in micro-bytes/cycle, for exact ceilings
	freeAt        int64

	Transfers   int64
	Bytes       int64
	QueueCycles int64 // total cycles requests spent waiting for the bus
	BusyCycles  int64 // total cycles the bus spent transferring
}

// NewBus returns a bus with the given sustained bandwidth in bytes/cycle.
// Zero or negative bandwidth means infinite (no bus modeling).
func NewBus(bytesPerCycle float64) *Bus {
	b := &Bus{bytesPerCycle: bytesPerCycle}
	if bytesPerCycle > 0 {
		// Snap the bandwidth to micro-bytes/cycle once so Transfer can use
		// integer ceiling division. Config values have at most a few decimal
		// digits (4, 6.4, 3.2, ...), which this represents exactly — unlike
		// float division, whose rounding can overcharge a cycle when the
		// quotient is an exact integer (e.g. 64 bytes at 3.2 B/cycle).
		b.microBPC = int64(bytesPerCycle*1e6 + 0.5)
		if b.microBPC < 1 {
			// Positive bandwidth below the micro-unit resolution: clamp
			// rather than divide by zero in Transfer.
			b.microBPC = 1
		}
	}
	return b
}

// Transfer schedules an off-chip transfer of the given size requested at
// cycle now, returning when the transfer completes. Blocking transfers (miss
// fills) should add memory latency on top of the returned cycle; writebacks
// can ignore the return value.
func (b *Bus) Transfer(now int64, bytes int) (done int64) {
	b.Transfers++
	b.Bytes += int64(bytes)
	if b.bytesPerCycle <= 0 {
		return now
	}
	// Exact ceil(bytes / bytesPerCycle) in integer arithmetic.
	dur := (int64(bytes)*1_000_000 + b.microBPC - 1) / b.microBPC
	if dur < 1 {
		dur = 1
	}
	start := now
	if b.freeAt > start {
		b.QueueCycles += b.freeAt - start
		start = b.freeAt
	}
	b.freeAt = start + dur
	b.BusyCycles += dur
	return b.freeAt
}

// Utilization returns busy cycles / elapsed cycles given the run length.
func (b *Bus) Utilization(totalCycles int64) float64 {
	if totalCycles <= 0 {
		return 0
	}
	u := float64(b.BusyCycles) / float64(totalCycles)
	if u > 1 {
		u = 1
	}
	return u
}
