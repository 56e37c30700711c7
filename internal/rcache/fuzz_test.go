package rcache

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes through decodeRecord, the check
// every disk read and every remote shard's response passes before a record
// is served. Any input may be refused; none may panic. A record is accepted
// only when it names the live schema and exactly the key asked for, so a
// record for one key can never answer a lookup for another.
func FuzzDecodeRecord(f *testing.F) {
	keyA, keyB := Key{0xa1, 1}, Key{0xb2, 2}
	valid, err := encodeRecord(keyA, testRun())
	if err != nil {
		f.Fatal(err)
	}
	forB, err := encodeRecord(keyB, testRun())
	if err != nil {
		f.Fatal(err)
	}
	wrongSchema, err := json.Marshal(record{Schema: SchemaVersion + 1, Key: keyA.String(), Run: testRun()})
	if err != nil {
		f.Fatal(err)
	}
	if r, ok := decodeRecord(valid, keyA); !ok || r != testRun() {
		f.Fatalf("valid record for its own key: got %+v, %t", r, ok)
	}
	f.Add(valid)
	f.Add(forB)
	f.Add(wrongSchema)
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, b []byte) {
		runA, okA := decodeRecord(b, keyA)
		_, okB := decodeRecord(b, keyB)
		if okA && okB {
			t.Fatalf("one record decoded under two keys: %q", b)
		}
		for _, c := range []struct {
			key Key
			ok  bool
		}{{keyA, okA}, {keyB, okB}} {
			if !c.ok {
				continue
			}
			var hdr struct {
				Schema int    `json:"schema"`
				Key    string `json:"key"`
			}
			if err := json.Unmarshal(b, &hdr); err != nil || hdr.Schema != SchemaVersion || hdr.Key != c.key.String() {
				t.Fatalf("accepted a record whose header is %+v (err %v) for key %s", hdr, err, c.key)
			}
		}
		if !okA {
			return
		}
		// Whatever decoded re-encodes to a record that round-trips under its
		// own key and is still refused under any other.
		again, err := encodeRecord(keyA, runA)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := decodeRecord(again, keyA); !ok || r != runA {
			t.Fatalf("re-encoded record does not round-trip: got %+v, %t; want %+v", r, ok, runA)
		}
		if _, ok := decodeRecord(again, keyB); ok {
			t.Fatalf("record encoded for %s decoded under %s", keyA, keyB)
		}
	})
}
