// Package trace defines the instruction-level action streams that tasks
// feed to the CMP simulator, and the typed arrays (Array) that record them.
//
// A task in this reproduction is a short segment of real computation (a run
// of merging, a block multiply, a sparse row batch). When the scheduler
// dispatches a task, the task's Go closure executes the genuine algorithm on
// genuine data while recording its memory references and compute work into a
// Recorder. The simulator then replays the recorded stream cycle-by-cycle
// through the cache hierarchy. This record-then-replay design keeps the
// simulated interleaving deterministic while preserving authentic reference
// patterns — the property the paper's constructive-cache-sharing results
// depend on.
//
// Every memory action is one naturally aligned 4- or 8-byte element of an
// Array, so it lies within one cache line whenever lines are at least 8
// bytes (machine.Config.Validate and cache.New require that). Actions
// therefore carry only an address, and the simulator maps each to exactly
// one line. Alignment also leaves an address's two low bits zero, which is
// where an Action keeps its Kind: one action is one 64-bit word.
//
// Addresses stay below 2^48 (an 8-bit space id above a 40-bit offset), so
// a memory action's top 16 bits are free. They hold its post: the compute
// cycles recorded right after it, up to 65,535, which the simulator charges
// as soon as the access completes. A standalone Compute action remains only
// at the start of a stream, after another Compute, or where a run of
// trailing cycles would not fit in a post.
package trace

import (
	"fmt"

	"repro/internal/mem"
)

// Kind discriminates the three action types. Its values are the two low
// bits of an Action.
type Kind uint8

const (
	// Compute models N ALU instructions, one cycle each.
	Compute Kind = iota
	// Load models a read of the element at the action's address.
	Load
	// Store models a write of the element at the action's address.
	Store
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Action is one simulated instruction (or, for Compute, a run of N of
// them), packed into one word. The two low bits hold the Kind. Above them
// sits a Load's or Store's element address unchanged — natural alignment
// keeps its two low bits zero — or a Compute's cycle count shifted left by
// two. A Load's or Store's top 16 bits hold its post: the compute
// cycles that follow it. The zero Action is a Compute of 0 cycles.
type Action uint64

const (
	// kindBits is the width of the Kind field in an Action's low bits.
	kindBits = 2
	// postShift is where a memory action's post starts: every address lies
	// below 1<<postShift.
	postShift = 48
	// maxPost is the largest post a memory action holds.
	maxPost = 1<<(64-postShift) - 1
	// addrMask keeps a memory action's address and Kind, dropping its post.
	addrMask = 1<<postShift - 1
)

// Kind returns the action's type.
func (a Action) Kind() Kind { return Kind(a & (1<<kindBits - 1)) }

// N returns a Compute's cycle count. It is meaningless for Load and Store.
func (a Action) N() int64 { return int64(a >> kindBits) }

// Post returns the compute cycles that follow a Load or Store. It is
// meaningless for Compute.
func (a Action) Post() int64 { return int64(a >> postShift) }

// Line returns the tag of the line a Load or Store touches, for lines of
// 1<<shift bytes. shift must be at least kindBits (lines are at least 8
// bytes), so the Kind bits fall below the tag; the post is masked off.
func (a Action) Line(shift uint) uint64 { return uint64(a&addrMask) >> shift }

// Instructions returns how many dynamic instructions the action represents:
// a Compute's cycles, or one access plus its post.
func (a Action) Instructions() int64 {
	if a.Kind() == Compute {
		return a.N()
	}
	return 1 + a.Post()
}

// Recorder accumulates a task's action stream. The zero value is ready to
// use. Recorders are reused across tasks via Reset to avoid allocation in
// the simulator's hot path.
type Recorder struct {
	actions []Action
}

// Reset clears the recorder, retaining capacity.
func (r *Recorder) Reset() { r.actions = r.actions[:0] }

// Adopt hands the recorder a previously-detached buffer to record into,
// so buffer capacity can be recycled across simulation runs instead of
// re-grown from zero by each one. Contents are discarded.
func (r *Recorder) Adopt(buf []Action) { r.actions = buf[:0] }

// Detach surrenders the recorder's buffer to the caller (for pooling) and
// leaves the recorder empty but usable.
func (r *Recorder) Detach() []Action {
	b := r.actions
	r.actions = nil
	return b
}

// Actions returns the recorded stream. The slice is owned by the recorder
// and is invalidated by the next Reset.
func (r *Recorder) Actions() []Action { return r.actions }

// Compute records n ALU cycles. They coalesce into a preceding Compute, or
// into a preceding Load's or Store's post while the post stays within
// maxPost. A run that outgrows the post moves out of it, whole, into a
// standalone Compute, so the stream never splits one run of cycles in two.
func (r *Recorder) Compute(n int) {
	if n <= 0 {
		return
	}
	if last := len(r.actions) - 1; last >= 0 {
		p := &r.actions[last]
		if p.Kind() == Compute {
			*p += Action(n) << kindBits
			return
		}
		sum := p.Post() + int64(n)
		if sum <= maxPost {
			*p += Action(n) << postShift
			return
		}
		*p &= addrMask
		n = int(sum)
	}
	r.actions = append(r.actions, Action(n)<<kindBits|Action(Compute))
}

// Load records a read of the element at addr, which must be 4-byte aligned.
func (r *Recorder) Load(addr mem.Addr) {
	r.actions = append(r.actions, Action(addr)|Action(Load))
}

// Store records a write of the element at addr, which must be 4-byte aligned.
func (r *Recorder) Store(addr mem.Addr) {
	r.actions = append(r.actions, Action(addr)|Action(Store))
}

// Stats summarizes a recorded stream; used by workload tests to check that
// generated traces have the intended shape.
type Stats struct {
	Actions      int
	Instructions int64
	Loads        int64
	Stores       int64
	ComputeCyc   int64
}

// Summarize computes stream statistics.
func Summarize(actions []Action) Stats {
	var s Stats
	s.Actions = len(actions)
	for _, a := range actions {
		s.Instructions += a.Instructions()
		switch a.Kind() {
		case Load:
			s.Loads++
			s.ComputeCyc += a.Post()
		case Store:
			s.Stores++
			s.ComputeCyc += a.Post()
		case Compute:
			s.ComputeCyc += a.N()
		}
	}
	return s
}
