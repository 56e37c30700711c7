package machine

import (
	"testing"

	"repro/internal/cache"
)

func TestDefaultsValidate(t *testing.T) {
	for _, cfg := range DefaultSweep() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestSweepCoreCounts(t *testing.T) {
	sweep := DefaultSweep()
	want := []int{1, 2, 4, 8, 16, 32}
	if len(sweep) != len(want) {
		t.Fatalf("sweep has %d configs", len(sweep))
	}
	for i, cfg := range sweep {
		if cfg.Cores != want[i] {
			t.Errorf("config %d has %d cores, want %d", i, cfg.Cores, want[i])
		}
	}
}

func TestTechProgression(t *testing.T) {
	if TechForCores(1) != Tech90 || TechForCores(2) != Tech90 {
		t.Error("1-2 cores should be 90nm")
	}
	if TechForCores(4) != Tech65 {
		t.Error("4 cores should be 65nm")
	}
	if TechForCores(8) != Tech45 {
		t.Error("8 cores should be 45nm")
	}
	if TechForCores(16) != Tech32 || TechForCores(32) != Tech32 {
		t.Error("16-32 cores should be 32nm")
	}
}

func TestL2SizesArePow2AndPositive(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8, 16, 32} {
		l2 := L2ForCores(cores, DefaultScale)
		if l2 <= 0 || l2&(l2-1) != 0 {
			t.Errorf("%d cores: L2 %d not a positive power of two", cores, l2)
		}
	}
}

func TestAreaModelTension(t *testing.T) {
	// The defining trend: per-core L2 share at 32 cores must be well below
	// the share at 1 core — that is the cache pressure PDF exploits.
	perCore1 := float64(L2ForCores(1, 1))
	perCore32 := float64(L2ForCores(32, 1)) / 32
	if perCore32 >= perCore1/4 {
		t.Fatalf("area model lacks cache pressure: 1-core L2 %v, 32-core per-core %v", perCore1, perCore32)
	}
	// And 32 cores at 32nm must still leave a usable L2.
	if L2ForCores(32, 1) < 1<<20 {
		t.Fatalf("32-core L2 %d unusably small at full scale", L2ForCores(32, 1))
	}
}

func TestCacheParamsRoundTrip(t *testing.T) {
	cfg := Default(8)
	p := cfg.CacheParams()
	if p.Cores != 8 || p.L2Size != cfg.L2Size || p.Lat.Mem != cfg.MemLat {
		t.Fatalf("CacheParams mismatch: %+v vs %+v", p, cfg)
	}
	// The params must construct a working hierarchy.
	h := cache.New(p)
	if h.L2().Size() != cfg.L2Size {
		t.Fatalf("hierarchy L2 size %d, want %d", h.L2().Size(), cfg.L2Size)
	}
}

func TestL2LatencyGrowsWithSize(t *testing.T) {
	small := Scaled(32, DefaultScale)
	big := Scaled(1, 1.0)
	if big.L2Size <= small.L2Size {
		t.Skip("unexpected sizes")
	}
	if big.L2Lat <= small.L2Lat {
		t.Fatalf("L2 latency should grow with size: %d (big %dKiB) vs %d (small %dKiB)",
			big.L2Lat, big.L2Size>>10, small.L2Lat, small.L2Size>>10)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := Default(4)
	bad.L2MaskedWays = bad.L2Ways
	if bad.Validate() == nil {
		t.Error("fully masked L2 accepted")
	}
	bad2 := Default(4)
	bad2.LineSize = 60
	if bad2.Validate() == nil {
		t.Error("non-pow2 line accepted")
	}
	narrow := Default(4)
	narrow.LineSize = 4
	if narrow.Validate() == nil {
		t.Error("4-byte line accepted: an 8-byte element would straddle two lines")
	}
	bad3 := Default(4)
	bad3.MemLat = 0
	if bad3.Validate() == nil {
		t.Error("zero memory latency accepted")
	}
}

func TestScaledPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("core count 0 accepted")
		}
	}()
	Scaled(0, 1)
}

func TestStringer(t *testing.T) {
	s := Default(8).String()
	if s == "" {
		t.Fatal("empty config string")
	}
}

func TestFloorPow2(t *testing.T) {
	cases := map[int64]int64{1: 1, 2: 2, 3: 2, 4: 4, 1023: 512, 1024: 1024, 1025: 1024}
	for in, want := range cases {
		if got := floorPow2(in); got != want {
			t.Errorf("floorPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
