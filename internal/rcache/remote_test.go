package rcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
)

func newTestServer(t *testing.T, maxBytes int64) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// cachedSample reads one unlabeled cached_* sample of srv as /metrics
// renders it.
func cachedSample(t *testing.T, srv *Server, name string) int64 {
	t.Helper()
	v, ok := testutil.Series(t, srv.registerMetrics, name)[""]
	if !ok {
		t.Fatalf("no %s sample", name)
	}
	return int64(v)
}

// openRemoteStore opens a disk store in its own temp dir with the remote
// tier attached.
func openRemoteStore(t *testing.T, baseURL string) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachRemote(baseURL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestRemoteRoundTrip is the tier's end-to-end story in miniature: client A
// computes a cell and writes it back; client B — different machine, cold
// local store — receives the identical record over the wire, fills its own
// disk, and a third store then serves it from that disk with no network.
func TestRemoteRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	cfg, spec := testCell()
	key := KeyOf(cfg, spec, "pdf", 1, false)
	want := testRun()

	a := openRemoteStore(t, ts.URL)
	got, err := a.Do(key, func() (metrics.Run, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("cold Do: run %+v err %v", got, err)
	}
	a.Close() // drain the asynchronous write-back
	if st := a.Stats(); st.Misses != 1 || st.RemoteStores != 1 || st.RemoteErrs != 0 {
		t.Fatalf("client A stats %+v: want 1 miss, 1 remote store, 0 errs", st)
	}
	if puts, entries := cachedSample(t, srv, "cached_puts_total"), cachedSample(t, srv, "cached_store_entries"); puts != 1 || entries != 1 {
		t.Fatalf("server: %d puts, %d entries; want the written-back entry", puts, entries)
	}

	b := openRemoteStore(t, ts.URL)
	got, err = b.Do(key, func() (metrics.Run, error) {
		t.Fatal("client B recomputed a cell the server holds")
		return metrics.Run{}, nil
	})
	if err != nil || got != want {
		t.Fatalf("warm-over-wire Do: run %+v err %v", got, err)
	}
	st := b.Stats()
	if st.RemoteHits != 1 || st.Misses != 0 || st.Hits() != 1 {
		t.Fatalf("client B stats %+v: want a pure remote hit", st)
	}
	// Read-through local fill: the remote hit was persisted locally...
	if st.Stores != 1 {
		t.Fatalf("client B stats %+v: remote hit was not filled into the local tier", st)
	}
	// ...so a fresh store on B's directory serves it with no remote attached.
	c, err := Open(filepath.Dir(b.dir), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err = c.Do(key, func() (metrics.Run, error) {
		t.Fatal("local fill did not persist")
		return metrics.Run{}, nil
	})
	if err != nil || got != want {
		t.Fatalf("local replay: run %+v err %v", got, err)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("local replay stats %+v: want a disk hit", st)
	}
}

// TestRemoteMemoryOnly: -cache-remote without -cache is a supported shape —
// memory tier in front, remote behind, nothing on local disk.
func TestRemoteMemoryOnly(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	key := Key{7}
	want := testRun()

	a := NewMemory()
	if err := a.AttachRemote(ts.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if puts := cachedSample(t, srv, "cached_puts_total"); puts != 1 {
		t.Fatalf("server: %d puts; memory-only client did not write back", puts)
	}

	b := NewMemory()
	if err := b.AttachRemote(ts.URL); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Do(key, func() (metrics.Run, error) {
		t.Fatal("recomputed despite remote warmth")
		return metrics.Run{}, nil
	})
	if err != nil || got != want {
		t.Fatalf("memory-only remote hit: run %+v err %v", got, err)
	}
	if st := b.Stats(); st.RemoteHits != 1 || st.Stores != 0 {
		t.Fatalf("stats %+v: want remote hit, no local store", st)
	}
}

// TestReadonlyNeverWritesRemote: -cache-readonly must cover the remote tier
// too — reads pass through, but computed cells are not written back.
func TestReadonlyNeverWritesRemote(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	s, err := Open(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachRemote(ts.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(Key{8}, func() (metrics.Run, error) { return testRun(), nil }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if puts := cachedSample(t, srv, "cached_puts_total"); puts != 0 {
		t.Fatalf("server: %d puts; readonly client wrote back", puts)
	}
	if st := s.Stats(); st.RemoteStores != 0 {
		t.Fatalf("client stats %+v: readonly store counted a write-back", st)
	}
}

// TestServerRejectsBadRequests: paths outside the store shape 404; a PUT
// whose body is not a record for the named key must not land; an entry
// answers GET and PUT only.
func TestServerRejectsBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	put := func(path string, body []byte) int {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	key := Key{10}
	good, err := encodeRecord(key.String(), testRun())
	if err != nil {
		t.Fatal(err)
	}
	wrongSchema, err := json.Marshal(record{Schema: SchemaVersion + 1, Key: key.String(), Run: testRun()})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		path string
		body []byte
		want int
	}{
		{"traversal path", "/cache/../../etc/passwd", good, http.StatusNotFound},
		{"bad version", "/cache/vendor/" + key.String(), good, http.StatusNotFound},
		{"bad key (short)", "/cache/" + LiveVersion() + "/abc123", good, http.StatusNotFound},
		{"bad key (uppercase)", "/cache/" + LiveVersion() + "/" + strings.ToUpper(key.String()), good, http.StatusNotFound},
		{"garbage body", "/cache/" + LiveVersion() + "/" + key.String(), []byte("not json"), http.StatusBadRequest},
		{"wrong-key body", "/cache/" + LiveVersion() + "/" + Key{11}.String(), good, http.StatusBadRequest},
		{"schema/version mismatch", "/cache/" + LiveVersion() + "/" + key.String(), wrongSchema, http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := put(c.path, c.body); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	if entries := cachedSample(t, srv, "cached_store_entries"); entries != 0 {
		t.Fatalf("server: %d entries; a rejected PUT landed", entries)
	}
	if bad := cachedSample(t, srv, "cached_bad_requests_total"); bad != int64(len(cases)) {
		t.Fatalf("server: %d bad requests, want %d", bad, len(cases))
	}

	// And the well-formed PUT lands.
	if got := put("/cache/"+LiveVersion()+"/"+key.String(), good); got != http.StatusNoContent {
		t.Fatalf("good PUT: status %d, want 204", got)
	}
	if puts, entries := cachedSample(t, srv, "cached_puts_total"), cachedSample(t, srv, "cached_store_entries"); entries != 1 || puts != 1 {
		t.Fatalf("server: %d puts, %d entries; want exactly the good entry", puts, entries)
	}

	// HEAD on the entry it now holds is still not a method an entry serves.
	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/cache/"+LiveVersion()+"/"+key.String(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, PUT" {
		t.Fatalf("HEAD on an entry: status %d Allow %q, want 405 %q", resp.StatusCode, resp.Header.Get("Allow"), "GET, PUT")
	}

	// Wrong methods are bad requests too: HEAD (above) and DELETE on an
	// entry, and anything but GET on the side-band endpoints.
	wrong := []struct{ method, path, allow string }{
		{http.MethodDelete, "/cache/" + LiveVersion() + "/" + key.String(), "GET, PUT"},
		{http.MethodPost, "/metrics", "GET"},
		{http.MethodHead, "/healthz", "GET"},
	}
	for _, c := range wrong {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != c.allow {
			t.Errorf("%s %s: status %d Allow %q, want 405 %q", c.method, c.path, resp.StatusCode, resp.Header.Get("Allow"), c.allow)
		}
	}
	if bad, want := cachedSample(t, srv, "cached_bad_requests_total"), int64(len(cases)+1+len(wrong)); bad != want {
		t.Fatalf("server: %d bad requests, want %d (the PUT cases and every 405)", bad, want)
	}
}

// TestServerMetricsWalksStoreOnce: a /metrics scrape reports the store's
// entries and bytes from a single directory walk.
func TestServerMetricsWalksStoreOnce(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	for _, k := range []Key{{1}, {2}} {
		body, err := encodeRecord(k.String(), testRun())
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+LiveVersion()+"/"+k.String(), bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for scrape := 1; scrape <= 2; scrape++ {
		before := srv.walks.Load()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if n := srv.walks.Load() - before; n != 1 {
			t.Errorf("scrape %d walked the store %d times, want 1", scrape, n)
		}
		if !strings.Contains(string(body), "cached_store_entries 2\n") {
			t.Errorf("scrape %d: no cached_store_entries 2 line:\n%s", scrape, body)
		}
	}
}

// TestServerEviction: the server's byte budget evicts least-recently-served
// entries after PUTs, and /metrics reports it.
func TestServerEviction(t *testing.T) {
	key := Key{12}
	body, err := encodeRecord(key.String(), testRun())
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(body)) // all records here are the same size
	srv, ts := newTestServer(t, 2*size)

	put := func(k Key) {
		b, err := encodeRecord(k.String(), testRun())
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+LiveVersion()+"/"+k.String(), bytes.NewReader(b))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %v: status %d", k, resp.StatusCode)
		}
		// mtime granularity is the LRU's clock; keep PUTs strictly ordered.
		time.Sleep(5 * time.Millisecond)
	}
	k1, k2, k3 := Key{1}, Key{2}, Key{3}
	put(k1)
	put(k2)
	put(k3) // budget is 2 entries: k1, the oldest, must go

	if entries, bytes := cachedSample(t, srv, "cached_store_entries"), cachedSample(t, srv, "cached_store_bytes"); entries != 2 || bytes > 2*size {
		t.Fatalf("server: %d entries, %d bytes; budget not enforced", entries, bytes)
	}
	if n, b := cachedSample(t, srv, "cached_evicted_entries_total"), cachedSample(t, srv, "cached_evicted_bytes_total"); n != 1 || b != size {
		t.Fatalf("server: %d evicted entries of %d bytes; want 1 of %d bytes", n, b, size)
	}
	if _, err := os.Stat(filepath.Join(srv.dir, LiveVersion(), k1.String()+".json")); !os.IsNotExist(err) {
		t.Fatal("oldest entry survived over-budget PUTs")
	}

	// A GET refreshes recency: touch k2 (now the older of the two), then
	// overflow again — k3, unread, is the victim.
	resp, err := http.Get(ts.URL + "/cache/" + LiveVersion() + "/" + k2.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	put(Key{4})
	if _, err := os.Stat(filepath.Join(srv.dir, LiveVersion(), k2.String()+".json")); err != nil {
		t.Fatal("recently served entry was evicted ahead of a colder one")
	}
	if _, err := os.Stat(filepath.Join(srv.dir, LiveVersion(), k3.String()+".json")); !os.IsNotExist(err) {
		t.Fatal("cold entry survived while a hotter one was evicted")
	}
}

// TestServerMetricsCountWriteBack: a client's write-back shows up in the
// server's counters on /metrics, the one endpoint that renders them.
func TestServerMetricsCountWriteBack(t *testing.T) {
	_, ts := newTestServer(t, 0)
	a := openRemoteStore(t, ts.URL)
	if _, err := a.Do(Key{13}, func() (metrics.Run, error) { return testRun(), nil }); err != nil {
		t.Fatal(err)
	}
	a.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := "\n" + string(b)
	for _, want := range []string{"cached_puts_total 1", "cached_store_entries 1"} {
		if !strings.Contains(out, "\n"+want+"\n") {
			t.Errorf("metrics missing %q: write-back not reflected:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "\ncached_put_bytes_total ") || strings.Contains(out, "\ncached_put_bytes_total 0\n") {
		t.Errorf("metrics: cached_put_bytes_total not moved by the write-back:\n%s", out)
	}
}

// TestRemoteServerDown: a dead remote must never fail a lookup — the first
// transport error latches the tier down (one counted error, no further
// network attempts) and the sweep degrades to local-only.
func TestRemoteServerDown(t *testing.T) {
	s, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	// 127.0.0.1:1 — reserved port, nothing listens; dial fails immediately.
	if err := s.AttachRemote("http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	want := testRun()
	for i := 0; i < 3; i++ {
		got, err := s.Do(Key{byte(20 + i)}, func() (metrics.Run, error) { return want, nil })
		if err != nil || got != want {
			t.Fatalf("Do %d against dead remote: run %+v err %v", i, got, err)
		}
	}
	st := s.Stats()
	if st.Misses != 3 || st.Stores != 3 {
		t.Fatalf("stats %+v: local tiers must be unaffected by a dead remote", st)
	}
	if st.RemoteErrs != 1 {
		t.Fatalf("stats %+v: want exactly one latched error, not one per lookup", st)
	}
	if st.RemoteStores != 0 {
		t.Fatalf("stats %+v: write-backs to a dead server cannot succeed", st)
	}
}

// TestRemoteCorruptResponses: garbage, wrong-key, and wrong-schema bodies
// from the server are refused and degrade to a local compute — never served,
// never fatal.
func TestRemoteCorruptResponses(t *testing.T) {
	key := Key{30}
	wrongKey, err := encodeRecord(Key{31}.String(), testRun())
	if err != nil {
		t.Fatal(err)
	}
	wrongSchema, err := json.Marshal(record{Schema: SchemaVersion + 1, Key: key.String(), Run: testRun()})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{
		"garbage":      []byte("these are not the bytes you are looking for"),
		"wrong-key":    wrongKey,
		"wrong-schema": wrongSchema,
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet {
					w.Write(body)
					return
				}
				w.WriteHeader(http.StatusNoContent)
			}))
			defer ts.Close()
			s := NewMemory()
			if err := s.AttachRemote(ts.URL); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want := testRun()
			got, err := s.Do(key, func() (metrics.Run, error) { return want, nil })
			if err != nil || got != want {
				t.Fatalf("Do with corrupt remote: run %+v err %v", got, err)
			}
			st := s.Stats()
			if st.RemoteErrs != 1 || st.RemoteHits != 0 || st.Misses != 1 {
				t.Fatalf("stats %+v: corrupt response must count one err and fall back to compute", st)
			}
		})
	}
}

// TestRemoteErrorStatusDegrades: a 5xx from the server is an anomaly (not a
// latch) — counted, treated as a miss, and the tier keeps trying.
func TestRemoteErrorStatusDegrades(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	s := NewMemory()
	if err := s.AttachRemote(ts.URL); err != nil {
		t.Fatal(err)
	}
	want := testRun()
	for i := 0; i < 2; i++ {
		if got, err := s.Do(Key{byte(40 + i)}, func() (metrics.Run, error) { return want, nil }); err != nil || got != want {
			t.Fatalf("Do under 5xx: run %+v err %v", got, err)
		}
	}
	s.Close()
	if st := s.Stats(); st.Misses != 2 || st.RemoteErrs == 0 {
		t.Fatalf("stats %+v: want local computes with counted remote errors", st)
	}
	if calls.Load() < 2 {
		t.Fatalf("server saw %d calls; 5xx must not latch the tier down", calls.Load())
	}
}

// TestAttachRemoteValidation: malformed URLs are rejected eagerly (the only
// remote error that is the operator's fault), double attach is refused, and
// Close is idempotent and safe without a remote.
func TestAttachRemoteValidation(t *testing.T) {
	s := NewMemory()
	for _, bad := range []string{"", "::://", "ftp://host", "http://"} {
		if err := s.AttachRemote(bad); err == nil {
			t.Errorf("AttachRemote(%q) accepted a malformed URL", bad)
		}
	}
	if err := s.AttachRemote("http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachRemote("http://127.0.0.1:2"); err == nil {
		t.Error("second AttachRemote accepted")
	}
	s.Close()
	s.Close()           // idempotent
	NewMemory().Close() // and a no-op without a remote
}

// BenchmarkRemoteWarmGet measures warm-over-wire latency: a cold client
// resolving one cell entirely from the server (the shared-cache fleet's
// steady state for a new machine).
func BenchmarkRemoteWarmGet(b *testing.B) {
	srv, err := NewServer(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	key := Key{50}
	seed := NewMemory()
	if err := seed.AttachRemote(ts.URL); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Do(key, func() (metrics.Run, error) { return testRun(), nil }); err != nil {
		b.Fatal(err)
	}
	seed.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewMemory()
		if err := s.AttachRemote(ts.URL); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Do(key, func() (metrics.Run, error) {
			return metrics.Run{}, fmt.Errorf("cold client missed a warm server")
		}); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkServerPut measures server ingest throughput (distinct keys, no
// budget): the write side of a cold fleet all publishing at once.
func BenchmarkServerPut(b *testing.B) {
	srv, err := NewServer(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	run := testRun()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var k Key
		k[0], k[1], k[2], k[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		body, err := encodeRecord(k.String(), run)
		if err != nil {
			b.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+LiveVersion()+"/"+k.String(), bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			b.Fatalf("PUT: status %d", resp.StatusCode)
		}
	}
}

// TestRemoteLatchReprobesAndRecovers is the latch-granularity regression
// test: a transport error latches the server down (misses are free, no
// network), but the latch is a re-probe deadline, not a process-lifetime
// sentence — once the server answers again, the same store's next lookup
// probes, unlatches, and serves warm entries over the wire.
func TestRemoteLatchReprobesAndRecovers(t *testing.T) {
	defer func(old time.Duration) { reprobeInterval = old }(reprobeInterval)
	reprobeInterval = 30 * time.Millisecond

	srv, err := NewServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			panic(http.ErrAbortHandler) // slam the connection: a transport error, not a status
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// Seed the server with warm entries through a healthy client.
	seed := openRemoteStore(t, ts.URL)
	want := testRun()
	keys := make([]Key, 32)
	for i := range keys {
		keys[i] = Key{60, byte(i)}
		if _, err := seed.Do(keys[i], func() (metrics.Run, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()
	if puts := cachedSample(t, srv, "cached_puts_total"); puts != int64(len(keys)) {
		t.Fatalf("server: %d puts; want %d seeded entries", puts, len(keys))
	}

	s := NewMemory()
	if err := s.AttachRemote(ts.URL); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Server goes sick: the first lookup eats the transport error, latches,
	// and computes; the rest miss without touching the network.
	down.Store(true)
	for i := 0; i < 3; i++ {
		got, err := s.Do(Key{61, byte(i)}, func() (metrics.Run, error) { return want, nil })
		if err != nil || got != want {
			t.Fatalf("Do %d against sick server: run %+v err %v", i, got, err)
		}
	}
	if st := s.Stats(); st.RemoteErrs != 1 || st.Misses != 3 {
		t.Fatalf("stats %+v: want one latched error and local computes", st)
	}

	// Server returns. After the re-probe deadline the next lookup probes and
	// the tier recovers — warm keys are served remotely again, on the same
	// store that latched.
	down.Store(false)
	recovered := false
	for i := 0; i < 200 && !recovered; i++ {
		time.Sleep(5 * time.Millisecond)
		computed := false
		got, err := s.Do(keys[i%len(keys)], func() (metrics.Run, error) {
			computed = true
			return want, nil
		})
		if err != nil || got != want {
			t.Fatalf("Do after recovery: run %+v err %v", got, err)
		}
		recovered = !computed
	}
	if !recovered {
		t.Fatal("latched tier never recovered after the server returned")
	}
	st := s.Stats()
	if st.RemoteHits == 0 {
		t.Fatalf("stats %+v: recovery must serve remote hits", st)
	}
	// Write-backs recover too: a fresh computed cell reaches the server.
	putsBefore := cachedSample(t, srv, "cached_puts_total")
	if _, err := s.Do(Key{62}, func() (metrics.Run, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if puts := cachedSample(t, srv, "cached_puts_total"); puts != putsBefore+1 {
		t.Fatalf("server: %d puts after %d; post-recovery write-back never landed", puts, putsBefore)
	}
}
