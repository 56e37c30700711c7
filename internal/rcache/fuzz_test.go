package rcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes through decodeRecord, the check
// every disk read and every remote shard's response passes before a record
// is served. Any input may be refused; none may panic. A record is accepted
// only when it names the live schema and exactly the key asked for, so a
// record for one key can never answer a lookup for another. And whatever
// the strict reader accepts, encoding/json decodes to the same schema, key
// and run, so taking the fast path never changes an answer; the seeds
// include spellings only encoding/json may judge.
func FuzzDecodeRecord(f *testing.F) {
	keyA, keyB := Key{0xa1, 1}, Key{0xb2, 2}
	valid, err := encodeRecord(keyA.String(), testRun())
	if err != nil {
		f.Fatal(err)
	}
	forB, err := encodeRecord(keyB.String(), testRun())
	if err != nil {
		f.Fatal(err)
	}
	wrongSchema, err := json.Marshal(record{Schema: SchemaVersion + 1, Key: keyA.String(), Run: testRun()})
	if err != nil {
		f.Fatal(err)
	}
	if r, ok := decodeRecord(valid, keyA.String()); !ok || r != testRun() {
		f.Fatalf("valid record for its own key: got %+v, %t", r, ok)
	}
	f.Add(valid)
	f.Add(forB)
	f.Add(wrongSchema)
	f.Add(valid[:len(valid)/2])
	for _, c := range nonCanonical(valid) {
		f.Add(c.b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if schema, k, r, ok := scanRecord(b); ok {
			var rec record
			if err := json.Unmarshal(b, &rec); err != nil || rec.Schema != schema || rec.Key != string(k) || rec.Run != r {
				t.Fatalf("strict reader read schema %d key %q run %+v from %q; encoding/json: %+v (err %v)", schema, k, r, b, rec, err)
			}
		}
		runA, okA := decodeRecord(b, keyA.String())
		_, okB := decodeRecord(b, keyB.String())
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
		again, err := encodeRecord(keyA.String(), runA)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := decodeRecord(again, keyA.String()); !ok || r != runA {
			t.Fatalf("re-encoded record does not round-trip: got %+v, %t; want %+v", r, ok, runA)
		}
		if _, ok := decodeRecord(again, keyB.String()); ok {
			t.Fatalf("record encoded for %s decoded under %s", keyA, keyB)
		}
	})
}

// FuzzServeHTTP drives one request of arbitrary method, path and body
// through cached's handler over a fresh store. Whatever arrives, the server
// must not panic or answer 5xx; a PUT it accepts (204) must have carried a
// record naming the path's key and schema; and afterwards every entry file
// in the store decodes as the record its name and directory claim — a
// confused or hostile client can never plant a record other clients would
// be served under the wrong key.
func FuzzServeHTTP(f *testing.F) {
	key := Key{10}
	good, err := encodeRecord(key.String(), testRun())
	if err != nil {
		f.Fatal(err)
	}
	wrongSchema, err := json.Marshal(record{Schema: SchemaVersion + 1, Key: key.String(), Run: testRun()})
	if err != nil {
		f.Fatal(err)
	}
	entry := "/cache/" + LiveVersion() + "/" + key.String()
	for _, c := range []struct {
		method, path string
		body         []byte
	}{ // TestServerRejectsBadRequests' cases, then the valid PUT and reads
		{http.MethodPut, "/cache/../../etc/passwd", good},
		{http.MethodPut, "/cache/vendor/" + key.String(), good},
		{http.MethodPut, "/cache/" + LiveVersion() + "/abc123", good},
		{http.MethodPut, "/cache/" + LiveVersion() + "/" + strings.ToUpper(key.String()), good},
		{http.MethodPut, entry, []byte("not json")},
		{http.MethodPut, "/cache/" + LiveVersion() + "/" + Key{11}.String(), good},
		{http.MethodPut, entry, wrongSchema},
		{http.MethodPut, entry, good},
		{http.MethodGet, entry, nil},
		{http.MethodDelete, entry, nil},
		{http.MethodGet, "/metrics", nil},
		{http.MethodHead, "/healthz", nil},
	} {
		f.Add(c.method, c.path, c.body)
	}

	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		req, err := http.NewRequest(method, "http://cached"+path, bytes.NewReader(body))
		if err != nil {
			return // not a request a client could send
		}
		dir := t.TempDir()
		srv, err := NewServer(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d", method, path, rec.Code)
		}
		if method == http.MethodPut && rec.Code == http.StatusNoContent {
			version, k, ok := parseEntryPath(req.URL.Path)
			var r record
			if !ok || json.Unmarshal(body, &r) != nil || r.Key != k || !strings.HasPrefix(version, fmt.Sprintf("v%d-", r.Schema)) {
				t.Fatalf("PUT %q accepted a body that is not its key's record: %q", path, body)
			}
		}
		err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			version, name := filepath.Base(filepath.Dir(p)), filepath.Base(p)
			var r record
			if json.Unmarshal(b, &r) != nil || r.Key+".json" != name || !strings.HasPrefix(version, fmt.Sprintf("v%d-", r.Schema)) {
				t.Fatalf("store file %s holds %q, not the record its name claims", p, b)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
