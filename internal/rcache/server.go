package rcache

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Server is the HTTP front end cmd/cached mounts over a result-cache
// directory, turning one warm store into a shared one for a fleet of sweep
// and cmpsim clients.
//
// The resource model is deliberately dumb because the keys carry all the
// intelligence: an entry is /cache/<version>/<key>, immutable once written.
// The on-disk layout is exactly the Store's (DIR/v<schema>-<shape>/<key>.json,
// atomic temp-file writes), so cached can serve a directory a local `sweep
// -cache DIR` already populated, and a directory cached populated can be
// mounted read-only as a local cache. The version segment namespaces schema
// generations, so clients built before and after a SchemaVersion bump share
// one server without aliasing.
//
// A -max-bytes budget is enforced after every PUT (and at startup) by the
// LRU in EnforceBudget; GETs refresh an entry's recency, and entries with a
// PUT in flight are never evicted.
type Server struct {
	dir      string
	maxBytes int64
	start    time.Time     // boot time, for /healthz uptime
	reg      *obs.Registry // backs /metrics

	mu       sync.Mutex
	inflight map[string]int // "version/key" → concurrent PUT count

	evictMu sync.Mutex   // serializes budget scans
	walks   atomic.Int64 // storeSize calls, so tests can count walks per scrape

	gets, hits, misses           atomic.Int64
	puts, putBytes, badRequests  atomic.Int64
	evictedEntries, evictedBytes atomic.Int64
}

// NewServer returns a handler serving dir, creating it if needed. A
// maxBytes > 0 budget is enforced immediately — a pre-populated directory
// over budget is trimmed at boot — and after every PUT.
func NewServer(dir string, maxBytes int64) (*Server, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("rcache: server: %w", err)
	}
	s := &Server{dir: dir, maxBytes: maxBytes, inflight: map[string]int{}, start: obs.Now()}
	s.reg = obs.NewRegistry()
	s.registerMetrics(s.reg)
	s.enforceBudget()
	return s, nil
}

// registerMetrics exposes the server's counters as the cached_* family,
// rendered in the exposition format for /metrics — the one surface its
// counters have. The two store-size gauges share one directory walk per
// scrape.
func (s *Server) registerMetrics(r *obs.Registry) {
	r.CounterFunc("cached_gets_total", "", "entry reads attempted against the store", s.gets.Load)
	r.CounterFunc("cached_hits_total", "", "entry reads served from the store", s.hits.Load)
	r.CounterFunc("cached_misses_total", "", "entry reads that found nothing", s.misses.Load)
	r.CounterFunc("cached_puts_total", "", "entries accepted and written", s.puts.Load)
	r.CounterFunc("cached_put_bytes_total", "", "entry bytes accepted and written", s.putBytes.Load)
	r.CounterFunc("cached_bad_requests_total", "", "malformed or wrong-method requests rejected", s.badRequests.Load)
	r.CounterFunc("cached_evicted_entries_total", "", "entries evicted by the byte budget", s.evictedEntries.Load)
	r.CounterFunc("cached_evicted_bytes_total", "", "bytes reclaimed by the byte budget", s.evictedBytes.Load)
	r.GaugeFunc("cached_max_bytes", "", "store byte budget (0 = unbounded)",
		func() float64 { return float64(s.maxBytes) })
	r.GaugePairFunc("cached_store_entries", "entries currently in the store",
		"cached_store_bytes", "bytes currently in the store",
		func() (float64, float64) { e, b := s.storeSize(); return float64(e), float64(b) })
	r.GaugeFunc("cached_uptime_seconds", "", "seconds since server start",
		func() float64 { return obs.Since(s.start).Seconds() })
}

// storeSize walks the store for its current entry count and byte total.
func (s *Server) storeSize() (entries, bytes int64) {
	s.walks.Add(1)
	versions, _ := os.ReadDir(s.dir)
	for _, v := range versions {
		if !v.IsDir() || !isSchemaDirName(v.Name()) {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(s.dir, v.Name()))
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") || strings.HasPrefix(f.Name(), "tmp-") {
				continue
			}
			if info, err := f.Info(); err == nil {
				entries++
				bytes += info.Size()
			}
		}
	}
	return entries, bytes
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		s.serveMetrics(w, r)
		return
	case "/healthz":
		s.serveHealthz(w, r)
		return
	}
	version, key, ok := parseEntryPath(r.URL.Path)
	if !ok {
		s.badRequests.Add(1)
		http.Error(w, "want /cache/<version>/<key>, /metrics or /healthz", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.serveGet(w, version, key)
	case http.MethodPut:
		s.servePut(w, r, version, key)
	default:
		s.badRequests.Add(1)
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveMetrics renders the registry in the Prometheus text exposition
// format.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.allowGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	s.reg.WriteText(w)
}

// Health is the /healthz response: liveness plus the two facts a fleet
// script wants before pointing clients here — how long the server has been
// up and which schema generation this build reads and writes.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	SchemaVersion string  `json:"schema_version"`
}

// serveHealthz answers 200 as soon as the server is constructed — CI waits
// on it before starting clients, so it must not walk the store or take any
// lock a slow request could hold.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.allowGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Health{
		Status:        "ok",
		UptimeSeconds: obs.Since(s.start).Seconds(),
		SchemaVersion: LiveVersion(),
	})
}

// allowGet answers 405 to anything but GET on a side-band endpoint, and
// counts it as a bad request.
func (s *Server) allowGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	s.badRequests.Add(1)
	w.Header().Set("Allow", "GET")
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

func (s *Server) serveGet(w http.ResponseWriter, version, key string) {
	s.gets.Add(1)
	path := filepath.Join(s.dir, version, key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		http.Error(w, "no such entry", http.StatusNotFound)
		return
	}
	s.hits.Add(1)
	now := time.Now()
	os.Chtimes(path, now, now) // refresh recency for the LRU
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

func (s *Server) servePut(w http.ResponseWriter, r *http.Request, version, key string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
	if err != nil {
		s.badRequests.Add(1)
		http.Error(w, "body unreadable or over entry size limit", http.StatusRequestEntityTooLarge)
		return
	}
	// The body must be a record claiming exactly this key, and its schema
	// number must match the generation the path names (the version segment
	// starts v<schema>-, so the server can check that much without knowing
	// the client's Run shape). Anything else is a confused client whose
	// write must not land where other clients will trust it — a mismatched
	// record would sit in the store failing every reader's validation until
	// the LRU happened to age it out.
	schema, k, _, ok := readRecord(body)
	if !ok || string(k) != key || !strings.HasPrefix(version, "v"+strconv.Itoa(schema)+"-") {
		s.badRequests.Add(1)
		http.Error(w, "body is not a cache record for this key and schema", http.StatusBadRequest)
		return
	}

	rel := version + "/" + key
	s.mu.Lock()
	s.inflight[rel]++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.inflight[rel]--; s.inflight[rel] == 0 {
			delete(s.inflight, rel)
		}
		s.mu.Unlock()
	}()

	vdir := filepath.Join(s.dir, version)
	if err := os.MkdirAll(vdir, 0o777); err != nil {
		http.Error(w, "store unwritable", http.StatusInternalServerError)
		return
	}
	if !writeEntry(vdir, key, body) {
		http.Error(w, "store unwritable", http.StatusInternalServerError)
		return
	}
	s.puts.Add(1)
	s.putBytes.Add(int64(len(body)))
	w.WriteHeader(http.StatusNoContent)
	// Enforce while this PUT is still registered in-flight, so the entry
	// just written can't be the one evicted to make room for itself.
	s.enforceBudget()
}

// enforceBudget applies the LRU under the server's budget, shielding keys
// with PUTs in flight. Scans are serialized; concurrent PUTs skip straight
// through their own scan if another is running the same victims down.
func (s *Server) enforceBudget() {
	if s.maxBytes <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	s.mu.Lock()
	protected := make(map[string]bool, len(s.inflight))
	for rel := range s.inflight {
		protected[rel] = true
	}
	s.mu.Unlock()
	n, b, err := EnforceBudget(s.dir, s.maxBytes, func(rel string) bool { return protected[rel] })
	if err == nil {
		s.evictedEntries.Add(n)
		s.evictedBytes.Add(b)
	}
}

// parseEntryPath validates /cache/<version>/<key>: version must be a schema
// directory name this package generates, key a 64-char lowercase-hex SHA-256.
// Anything else 404s — the server never lets a request name a path outside
// its store.
func parseEntryPath(path string) (version, key string, ok bool) {
	rest, found := strings.CutPrefix(path, "/cache/")
	if !found {
		return "", "", false
	}
	version, key, found = strings.Cut(rest, "/")
	if !found || !isSchemaDirName(version) || !isKeyName(key) {
		return "", "", false
	}
	return version, key, true
}

func isKeyName(s string) bool {
	if len(s) != 2*len(Key{}) {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
