// Package machine defines the CMP configurations the experiments run on.
//
// The paper fixes a 240 mm² die and varies the core count from 1 to 32,
// pairing each count with a "default configuration based on current CMPs and
// realistic projections of future CMPs, as process technologies decrease
// from 90nm to 32nm". The exact per-configuration numbers live in the
// authors' unavailable tech report, so this package rebuilds them from a
// transparent area model (documented in DESIGN.md):
//
//   - A fraction of the die is reserved for interconnect, I/O and glue.
//   - Each core (with its private L1) occupies a per-technology area.
//   - The remaining area becomes shared L2, at a per-technology SRAM
//     density, rounded down to a power of two.
//
// Because the reproduction's success criteria are shape-based (who wins,
// where the gap opens), the model's absolute constants matter less than the
// trend they encode: as cores multiply, per-core L2 share shrinks — the
// regime where constructive sharing pays.
package machine

import (
	"fmt"
	"strconv"

	"repro/internal/cache"
)

// Tech describes one process technology node.
type Tech struct {
	Name     string
	CoreMM2  float64 // area of one core + private L1 + glue
	MBPerMM2 float64 // SRAM density including tags and overhead
	BusBPC   float64 // off-chip bandwidth, bytes per core cycle
}

// Technology roadmap. Core area shrinks with each node while usable SRAM
// density improves more slowly (wire delay, tag/ECC overhead, and the era's
// leakage constraints kept cache density behind logic scaling). The chosen
// constants yield the design-point trend the paper's defaults encode: total
// shared L2 stays roughly flat across the sweep (~8 MB full-scale) while
// the number of cores sharing it grows 1→32, so per-core cache share — the
// pressure constructive sharing relieves — falls by ~32x.
// Off-chip bandwidth follows the memory-interface roadmap of the same era
// (DDR2 → DDR3 generations): it grows with each node, though far slower
// than aggregate core demand — which is why high-core-count configurations
// are bandwidth-constrained and off-chip traffic is worth money.
var (
	Tech90 = Tech{Name: "90nm", CoreMM2: 20, MBPerMM2: 0.06, BusBPC: 4}
	Tech65 = Tech{Name: "65nm", CoreMM2: 10, MBPerMM2: 0.085, BusBPC: 6}
	Tech45 = Tech{Name: "45nm", CoreMM2: 5, MBPerMM2: 0.10, BusBPC: 8}
	Tech32 = Tech{Name: "32nm", CoreMM2: 2.5, MBPerMM2: 0.14, BusBPC: 12}
)

// DieMM2 is the paper's fixed die size.
const DieMM2 = 240.0

// UsableFraction is the share of the die available to cores and L2 after
// interconnect, I/O, and pads.
const UsableFraction = 0.8

// TechForCores maps a core count to the technology node that a 240 mm² die
// would plausibly carry it on, following the paper's 90nm→32nm progression.
func TechForCores(cores int) Tech {
	switch {
	case cores <= 2:
		return Tech90
	case cores <= 4:
		return Tech65
	case cores <= 8:
		return Tech45
	default:
		return Tech32
	}
}

// Config is a complete simulated CMP: geometry, latencies, bandwidth, and
// scheduler overhead costs.
type Config struct {
	Name  string
	Cores int
	Tech  string

	LineSize int
	L1Size   int64
	L1Ways   int
	L2Size   int64
	L2Ways   int

	L1Lat  int64
	L2Lat  int64
	MemLat int64

	// BusBPC is off-chip bandwidth in bytes per core cycle. The paper's
	// bandwidth-limited findings depend on this being finite.
	BusBPC float64

	// L2MaskedWays powers down part of the L2 (t3-power experiment).
	L2MaskedWays int

	// Scheduler overheads, in cycles, charged by the simulator on dispatch.
	// PDF pays a (contended, global) priority-queue access; WS pays a cheap
	// local pop, plus a probe cost per scanned victim queue and a transfer
	// cost on a successful steal.
	PDFDispatch   int64
	WSPopLocal    int64
	WSStealProbe  int64
	WSStealXfer   int64
	IdleRetry     int64 // re-poll interval for an idle core finding no work
	SpawnOverhead int64 // per-task bookkeeping charged at task start
}

// CacheParams converts the configuration to hierarchy parameters.
func (c Config) CacheParams() cache.Params {
	return cache.Params{
		Cores:        c.Cores,
		LineSize:     c.LineSize,
		L1Size:       c.L1Size,
		L1Ways:       c.L1Ways,
		L2Size:       c.L2Size,
		L2Ways:       c.L2Ways,
		L2MaskedWays: c.L2MaskedWays,
		BusBPC:       c.BusBPC,
		Lat:          cache.Latencies{L1: c.L1Lat, L2: c.L2Lat, Mem: c.MemLat},
	}
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("%s: %d cores @ %s, L1 %dKiB/%d-way, L2 %dKiB/%d-way, %.1f B/cyc offchip",
		c.Name, c.Cores, c.Tech, c.L1Size>>10, c.L1Ways, c.L2Size>>10, c.L2Ways, c.BusBPC)
}

// Fingerprint returns a canonical, self-describing encoding of every field —
// the machine half of a simulation cell's identity, consumed by the result
// cache (internal/rcache). Two configs with equal fingerprints simulate
// identically. Every field must appear here: TestFingerprintCoversEveryField
// perturbs each struct field by reflection and fails if the fingerprint does
// not change, so adding a Config field without extending this method breaks
// the build's tests rather than silently aliasing cache entries.
//
// It is the fmt-free spelling of `machine.Config{Name=%q Cores=%d Tech=%q
// ... BusBPC=%s ... SpawnOverhead=%d}` (BusBPC in strconv's shortest 'g'
// form): the result cache builds one per lookup, so it appends with strconv
// instead.
func (c Config) Fingerprint() string {
	b := append(make([]byte, 0, 384), "machine.Config{Name="...)
	b = strconv.AppendQuote(b, c.Name)
	b = appendField(b, " Cores=", int64(c.Cores))
	b = strconv.AppendQuote(append(b, " Tech="...), c.Tech)
	b = appendField(b, " LineSize=", int64(c.LineSize))
	b = appendField(b, " L1Size=", c.L1Size)
	b = appendField(b, " L1Ways=", int64(c.L1Ways))
	b = appendField(b, " L2Size=", c.L2Size)
	b = appendField(b, " L2Ways=", int64(c.L2Ways))
	b = appendField(b, " L1Lat=", c.L1Lat)
	b = appendField(b, " L2Lat=", c.L2Lat)
	b = appendField(b, " MemLat=", c.MemLat)
	b = strconv.AppendFloat(append(b, " BusBPC="...), c.BusBPC, 'g', -1, 64)
	b = appendField(b, " L2MaskedWays=", int64(c.L2MaskedWays))
	b = appendField(b, " PDFDispatch=", c.PDFDispatch)
	b = appendField(b, " WSPopLocal=", c.WSPopLocal)
	b = appendField(b, " WSStealProbe=", c.WSStealProbe)
	b = appendField(b, " WSStealXfer=", c.WSStealXfer)
	b = appendField(b, " IdleRetry=", c.IdleRetry)
	b = appendField(b, " SpawnOverhead=", c.SpawnOverhead)
	return string(append(b, '}'))
}

// appendField appends one ` Name=<decimal>` fingerprint field.
func appendField(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

// floorPow2 rounds down to a power of two.
func floorPow2(v int64) int64 {
	p := int64(1)
	for p*2 <= v {
		p *= 2
	}
	return p
}

// L2ForCores computes the shared L2 capacity the area model yields for the
// given core count at the given scale. scale < 1 shrinks the L2 to keep
// dataset sizes tractable — see DefaultScale.
func L2ForCores(cores int, scale float64) int64 {
	tech := TechForCores(cores)
	usable := DieMM2 * UsableFraction
	l2mm2 := usable - float64(cores)*tech.CoreMM2
	if l2mm2 <= 0 {
		return 0
	}
	mb := l2mm2 * tech.MBPerMM2 * scale
	bytes := int64(mb * (1 << 20))
	const minL2 = 64 << 10
	if bytes < minL2 {
		return minL2
	}
	return floorPow2(bytes)
}

// DefaultScale shrinks the modeled caches (and, correspondingly, the
// experiment datasets) so that full 1–32-core sweeps simulate in seconds.
// Miss behavior is scale-free as long as dataset/L2 ratios are preserved;
// EXPERIMENTS.md records this substitution.
const DefaultScale = 0.25

// Default returns the default configuration for the given core count at
// DefaultScale, mirroring the paper's per-core-count default CMPs.
func Default(cores int) Config {
	return Scaled(cores, DefaultScale)
}

// Scaled returns the default configuration at an explicit scale factor.
func Scaled(cores int, scale float64) Config {
	if cores < 1 || cores > 64 {
		panic(fmt.Sprintf("machine: unsupported core count %d", cores))
	}
	tech := TechForCores(cores)
	l2 := L2ForCores(cores, scale)
	// L2 latency grows mildly with capacity (wire delay): 12 cycles plus
	// one per doubling above 256 KiB.
	l2lat := int64(12)
	for s := int64(256 << 10); s < l2; s *= 2 {
		l2lat++
	}
	cfg := Config{
		Name:     fmt.Sprintf("default-%dc", cores),
		Cores:    cores,
		Tech:     tech.Name,
		LineSize: 64,
		// 16 KiB fixed private L1s: the paper varies only cores and L2.
		// Keeping aggregate L1 well below the inclusive L2 at 32 cores
		// avoids inclusion-thrash design points no real CMP would ship.
		L1Size: 16 << 10,
		L1Ways: 4,
		L2Size: l2,
		L2Ways: 16,
		L1Lat:  1,
		L2Lat:  l2lat,
		MemLat: 400,
		// Shared by all cores; the knob that makes memory-intensive
		// programs bandwidth-limited as core counts grow.
		BusBPC:        tech.BusBPC,
		PDFDispatch:   40,
		WSPopLocal:    8,
		WSStealProbe:  16,
		WSStealXfer:   40,
		IdleRetry:     50,
		SpawnOverhead: 4,
	}
	return cfg
}

// DefaultSweep returns the paper's x-axis: default configurations for
// 1, 2, 4, 8, 16, and 32 cores.
func DefaultSweep() []Config {
	counts := []int{1, 2, 4, 8, 16, 32}
	out := make([]Config, len(counts))
	for i, c := range counts {
		out[i] = Default(c)
	}
	return out
}

// Validate checks a configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("machine %s: cores %d", c.Name, c.Cores)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("machine %s: line size %d", c.Name, c.LineSize)
	case c.LineSize < 8:
		// The simulator maps each access to one line, which is exact only
		// while no aligned element (up to 8 bytes, see package trace) can
		// straddle two.
		return fmt.Errorf("machine %s: line size %d is below 8 bytes, the widest traced element", c.Name, c.LineSize)
	case c.L1Size < int64(c.L1Ways*c.LineSize):
		return fmt.Errorf("machine %s: L1 %d too small for %d ways", c.Name, c.L1Size, c.L1Ways)
	case c.L2Size < int64(c.L2Ways*c.LineSize):
		return fmt.Errorf("machine %s: L2 %d too small for %d ways", c.Name, c.L2Size, c.L2Ways)
	case c.L2MaskedWays < 0 || c.L2MaskedWays >= c.L2Ways:
		return fmt.Errorf("machine %s: masked ways %d of %d", c.Name, c.L2MaskedWays, c.L2Ways)
	case c.L1Lat < 1 || c.L2Lat < 1 || c.MemLat < 1:
		return fmt.Errorf("machine %s: non-positive latency", c.Name)
	}
	return nil
}
