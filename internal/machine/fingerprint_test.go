package machine

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/testutil"
)

// TestFingerprintCoversEveryField guards the result cache's key: if a field
// is added to Config but not to Fingerprint, two configs that simulate
// differently would hash to the same cache entry. Perturbing every field by
// reflection catches that omission the moment the field lands.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Default(8)
	ref := base.Fingerprint()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		mod := base
		testutil.PerturbField(t, reflect.ValueOf(&mod).Elem().Field(i))
		if mod.Fingerprint() == ref {
			t.Errorf("Config.Fingerprint ignores field %s — cache entries would alias", typ.Field(i).Name)
		}
	}
}

// TestFingerprintStable pins the property the disk cache relies on: equal
// configs produce byte-equal fingerprints across calls.
func TestFingerprintStable(t *testing.T) {
	a, b := Default(16), Default(16)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal configs, unequal fingerprints:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	if Default(8).Fingerprint() == Default(16).Fingerprint() {
		t.Fatal("distinct configs share a fingerprint")
	}
}

// TestFingerprintMatchesFmtSpelling pins Fingerprint to the fmt spelling
// every existing result-cache key was hashed from: the default configs, each
// one-field perturbation of one, and a config with awkward values (quotes,
// control and non-ASCII bytes, negatives, extreme floats) must all render
// byte-identically, or every warm cache would go cold.
func TestFingerprintMatchesFmtSpelling(t *testing.T) {
	var cfgs []Config
	for _, cores := range []int{1, 2, 4, 8, 16, 32} {
		cfgs = append(cfgs, Default(cores))
	}
	base := Default(8)
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		mod := base
		testutil.PerturbField(t, reflect.ValueOf(&mod).Elem().Field(i))
		cfgs = append(cfgs, mod)
	}
	odd := base
	odd.Name, odd.Tech = "q\"uo\\te\td \xff ü", ""
	odd.Cores, odd.L1Size, odd.MemLat, odd.SpawnOverhead = -1, math.MaxInt64, math.MinInt64, -7
	for _, bpc := range []float64{1.0 / 3, 1e21, 1e-7, -0.0, math.Inf(1), math.NaN()} {
		odd.BusBPC = bpc
		cfgs = append(cfgs, odd)
	}
	for _, c := range cfgs {
		want := fmt.Sprintf("machine.Config{Name=%q Cores=%d Tech=%q LineSize=%d "+
			"L1Size=%d L1Ways=%d L2Size=%d L2Ways=%d L1Lat=%d L2Lat=%d MemLat=%d "+
			"BusBPC=%s L2MaskedWays=%d PDFDispatch=%d WSPopLocal=%d WSStealProbe=%d "+
			"WSStealXfer=%d IdleRetry=%d SpawnOverhead=%d}",
			c.Name, c.Cores, c.Tech, c.LineSize,
			c.L1Size, c.L1Ways, c.L2Size, c.L2Ways, c.L1Lat, c.L2Lat, c.MemLat,
			strconv.FormatFloat(c.BusBPC, 'g', -1, 64), c.L2MaskedWays,
			c.PDFDispatch, c.WSPopLocal, c.WSStealProbe,
			c.WSStealXfer, c.IdleRetry, c.SpawnOverhead)
		if got := c.Fingerprint(); got != want {
			t.Errorf("Fingerprint\n got %s\nwant %s", got, want)
		}
	}
}
