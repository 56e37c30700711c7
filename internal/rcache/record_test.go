package rcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// The on-disk contract, as captured from a build whose keys and records
// predate the strict reader and the fmt-free key writer: the content
// address of one fixed cell (cmpsim -workload mergesort -n 16384 -grain 512
// -cores 8 -sched ws -seed 1), the schema directory this build reads and
// writes, and the record that cell's run wrote, checked in under testdata.
const (
	pinnedKey     = "7c6f29f67140e0e8aa6013d0c64c7d20accf913aa7388fc811329acc127f73f6"
	pinnedVersion = "v1-c97eecb0"
)

func pinnedCell() Key {
	return KeyOf(machine.Default(8), workloads.Spec{Name: "mergesort", N: 16384, Grain: 512, Seed: 1}, "ws", 1, false)
}

var pinnedRun = metrics.Run{
	Workload: "mergesort", Scheduler: "ws", Cores: 8, Config: "default-8c",
	Cycles: 435938, Instructions: 1116264, Tasks: 255,
	BusyCycles: 3165921, IdleCycles: 308640, DispatchCyc: 321048,
	L1Hits: 651160, L1Misses: 22730, L2Hits: 18634, L2Misses: 4096,
	OffchipTransfers: 4096, OffchipBytes: 262144,
	BusQueueCycles: 24, BusUtilization: 0.07516665213860686,
	Steals: 100, StealProbes: 18402, FailedSteals: 2572, MaxPremature: 83,
}

// TestPinnedOnDiskContract fails if a change moves any key, the schema
// directory or the record bytes: each would silently turn every existing
// cache — local directories, the shared fleet, CI's — into misses. Changing
// them on purpose means bumping SchemaVersion and re-capturing the pins.
func TestPinnedOnDiskContract(t *testing.T) {
	key := pinnedCell()
	if key.String() != pinnedKey {
		t.Errorf("KeyOf(pinned cell) = %s, want %s", key, pinnedKey)
	}
	if LiveVersion() != pinnedVersion {
		t.Errorf("LiveVersion() = %s, want %s", LiveVersion(), pinnedVersion)
	}
	b, err := os.ReadFile(filepath.Join("testdata", pinnedKey+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := scanRecord(b); !ok {
		t.Error("the strict reader refuses the pinned record")
	}
	if r, ok := decodeRecord(b, pinnedKey); !ok || r != pinnedRun {
		t.Errorf("pinned record decodes to %+v, %t; want %+v", r, ok, pinnedRun)
	}
	if again, err := encodeRecord(pinnedKey, pinnedRun); err != nil || string(again) != string(b) {
		t.Errorf("encodeRecord(pinned run) = %s (err %v); want the pinned bytes %s", again, err, b)
	}

	// The same file dropped into a store directory is a disk hit.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, pinnedVersion), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, pinnedVersion, pinnedKey+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Do(key, func() (metrics.Run, error) { return metrics.Run{}, errors.New("pinned cell missed") })
	if err != nil || r != pinnedRun {
		t.Fatalf("Do(pinned key) = %+v, %v; want the pinned run", r, err)
	}
	if st := s.Stats(); st.DiskHits != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want one disk hit", st)
	}
}

// TestScanRecordCoversEveryField sets every metrics.Run field to a distinct
// non-zero value and requires the strict reader to accept encodeRecord's
// bytes and agree with encoding/json. A field added to Run without a line in
// scanRecord fails here rather than sending every record down the slow
// path.
func TestScanRecordCoversEveryField(t *testing.T) {
	var r metrics.Run
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i))
		case reflect.Float64:
			f.SetFloat(0.1 + float64(i)/7)
		default:
			t.Fatalf("unhandled field kind %v for %s — extend this test and scanRecord", f.Kind(), v.Type().Field(i).Name)
		}
	}
	name := Key{1, 2, 3}.String()
	b, err := encodeRecord(name, r)
	if err != nil {
		t.Fatal(err)
	}
	schema, key, got, ok := scanRecord(b)
	if !ok {
		t.Fatalf("the strict reader refuses encodeRecord's bytes %s", b)
	}
	var want record
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if schema != want.Schema || string(key) != want.Key || got != want.Run || got != r {
		t.Fatalf("strict reader: schema %d key %s run %+v\nencoding/json: %+v\nencoded: %+v", schema, key, got, want, r)
	}
}

// TestScanRecordRefusesNonCanonical lists spellings encoding/json reads (or
// refuses) that the strict reader must leave to it, each made from a valid
// record by one substitution. decodeRecord must then answer exactly as
// encoding/json does.
func TestScanRecordRefusesNonCanonical(t *testing.T) {
	name := Key{9}.String()
	valid, err := encodeRecord(name, testRun())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range nonCanonical(valid) {
		if _, _, _, ok := scanRecord(c.b); ok {
			t.Errorf("%s: the strict reader accepted %s", c.what, c.b)
		}
		var rec record
		jsonOK := json.Unmarshal(c.b, &rec) == nil && rec.Schema == SchemaVersion && rec.Key == name
		r, ok := decodeRecord(c.b, name)
		if ok != jsonOK || (ok && r != rec.Run) {
			t.Errorf("%s: decodeRecord = %+v, %t; encoding/json = %+v, %t", c.what, r, ok, rec.Run, jsonOK)
		}
	}
}

type spelling struct {
	what string
	b    []byte
}

// nonCanonical derives, from valid encodeRecord bytes of testRun, the
// spellings only encoding/json may judge: some it reads to the same record
// (whitespace, case-folded names, escapes, a trailing newline), the rest it
// refuses (numbers strconv would take but JSON does not).
func nonCanonical(valid []byte) []spelling {
	sub := func(old, new string) []byte {
		if !bytes.Contains(valid, []byte(old)) {
			panic("spelling: " + old + " not in the record")
		}
		return bytes.Replace(valid, []byte(old), []byte(new), 1)
	}
	return []spelling{
		{"whitespace", sub(`{"schema":1,`, `{ "schema": 1, `)},
		{"trailing newline", append(append([]byte(nil), valid...), '\n')},
		{"reordered fields", sub(`"Workload":"mergesort","Scheduler":"pdf"`, `"Scheduler":"pdf","Workload":"mergesort"`)},
		{"case-changed name", sub(`"Cycles":`, `"cycles":`)},
		{"escaped string", sub(`"mergesort"`, `"\u006dergesort"`)},
		{"exponent in an integer", sub(`"Cores":8`, `"Cores":1.0e0`)},
		{"leading zero", sub(`"Cores":8`, `"Cores":01`)},
		{"plus sign", sub(`"Cores":8`, `"Cores":+8`)},
		{"underscore", sub(`"Cycles":123456`, `"Cycles":123_456`)},
		{"NaN", sub(`"BusUtilization":0.123456789012345`, `"BusUtilization":NaN`)},
		{"Inf", sub(`"BusUtilization":0.123456789012345`, `"BusUtilization":Inf`)},
		{"hex float", sub(`"BusUtilization":0.123456789012345`, `"BusUtilization":0x1p-2`)},
		{"bare fraction", sub(`"BusUtilization":0.123456789012345`, `"BusUtilization":.5`)},
		{"float overflow", sub(`"BusUtilization":0.123456789012345`, `"BusUtilization":1e400`)},
		{"int overflow", sub(`"Cycles":123456`, `"Cycles":9223372036854775808`)},
		{"unknown field", sub(`"run":{`, `"run":{"Extra":1,`)},
		{"non-ASCII byte", sub(`"mergesort"`, "\"merges\xc3\xb6rt\"")},
		{"control byte", sub(`"mergesort"`, "\"merge\tsort\"")},
	}
}

// BenchmarkDecodeRecord is one record's decode and key check: the strict
// reader on encodeRecord's bytes, and encoding/json on the same record with
// one space added, which the strict reader refuses.
func BenchmarkDecodeRecord(b *testing.B) {
	name := pinnedCell().String()
	valid, err := encodeRecord(name, pinnedRun)
	if err != nil {
		b.Fatal(err)
	}
	spaced := append([]byte{' '}, valid...)
	for _, c := range []struct {
		name string
		b    []byte
	}{{"fast", valid}, {"fallback", spaced}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := decodeRecord(c.b, name); !ok {
					b.Fatal("refused a valid record")
				}
			}
		})
	}
}

// BenchmarkKeyOf is one cell's content address: both fingerprints, the
// appended text and its SHA-256.
func BenchmarkKeyOf(b *testing.B) {
	cfg, spec := machine.Default(8), workloads.Spec{Name: "mergesort", N: 16384, Grain: 512, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KeyOf(cfg, spec, "ws", uint64(i), false)
	}
}

// BenchmarkDiskWarmGet is one disk-tier hit from a fresh store's empty
// memory tier: the key's hex form, the file read, the record decode and key
// check, and the timestamp refresh.
func BenchmarkDiskWarmGet(b *testing.B) {
	dir := b.TempDir()
	key := pinnedCell()
	seed, err := Open(dir, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Do(key, func() (metrics.Run, error) { return pinnedRun, nil }); err != nil {
		b.Fatal(err)
	}
	s, err := Open(dir, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.diskGet(key.String()); !ok {
			b.Fatal("warm disk entry missed")
		}
	}
}
