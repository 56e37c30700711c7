// Package rcache is a content-addressed result cache for simulation cells.
//
// Every cell the experiment suite runs is a deterministic function of its
// identity — (machine.Config, workloads.Spec, scheduler, seed, quick) — so
// its metrics.Run can be memoized under a collision-resistant fingerprint of
// that identity and replayed instead of re-simulated. The suite re-visits
// identical cells constantly (the two fig1 panels share all of their cells;
// `sweep -exp all` repeats (config, workload) points across experiments), so
// memoization makes repeat sweeps near-free while output stays byte-identical
// to an uncached run: a cached Run is the same record the simulator produced,
// round-tripped losslessly.
//
// The store is three-tier with a singleflight layer in front:
//
//   - memory: a map keyed by fingerprint, deduplicating within one process
//     (intra-sweep reuse, e.g. fig1-misses then fig1-speedup).
//   - disk: one JSON record per key under DIR/v<schema>-<shape>/ (shape is
//     a hash of metrics.Run's field list), written to a temp file and
//     atomically renamed, so readers never observe a torn entry and
//     concurrent writers of the same key are harmless (last rename wins,
//     both wrote identical bytes). Mismatched or truncated records are
//     treated as misses, counted, and best-effort deleted.
//   - remote (optional): a cmd/cached server shared by a fleet of clients.
//     Reads are read-through with local fill; computed cells are written
//     back asynchronously; any failure degrades the tier to a miss — a dead
//     server never fails a sweep. See remote.go and server.go.
//   - singleflight: concurrent Do calls with the same key run the compute
//     function once; latecomers block on the first caller's result. Under
//     `sweep -exp all` the fig1-misses and fig1-speedup experiments race to
//     the same 14 cells — one simulates, the other waits.
//
// Keys are salted with SchemaVersion. Bump it whenever the meaning of a
// record changes (simulator semantics, metrics fields, fingerprint format):
// old entries then live under a dead v<k> directory that can never alias a
// current key, and GC prunes them.
package rcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// SchemaVersion salts every key and names the on-disk directory. Bump on any
// change to simulator semantics, the meaning of a metrics.Run field, the
// fingerprint encodings, or the record format; stale entries then become
// unreachable rather than wrong, and `sweep -cache-gc` reclaims them.
// (Adding/removing/retyping Run fields needs no manual bump: the field
// shape is folded into every key — see runShape.)
const SchemaVersion = 1

// Key is the content address of one simulation cell.
type Key [sha256.Size]byte

// String returns the lowercase hex form used as the on-disk file name, the
// URL segment and the record's key field. A lookup builds it once (DoSpan)
// and passes it down to every tier.
func (k Key) String() string {
	var b [2 * sha256.Size]byte
	hex.Encode(b[:], k[:])
	return string(b[:])
}

// runShape enumerates metrics.Run's field names and types by reflection.
// Folding it into every key — and, hashed, into the version directory name —
// makes the record schema self-versioning: if a field is added to Run
// without the documented manual SchemaVersion bump, every key and the
// directory still change, so old records — which would otherwise decode
// cleanly with the new field silently zeroed — can never be served, and GC
// reclaims them as a dead version.
var runShape = func() string {
	t := reflect.TypeOf(metrics.Run{})
	parts := make([]string, t.NumField())
	for i := range parts {
		f := t.Field(i)
		parts[i] = f.Name + " " + f.Type.String()
	}
	return strings.Join(parts, ";")
}()

// liveVersionDir names the schema directory for this build:
// v<SchemaVersion>-<8 hex chars of sha256(runShape)>.
var liveVersionDir = func() string {
	sum := sha256.Sum256([]byte(runShape))
	return fmt.Sprintf("v%d-%s", SchemaVersion, hex.EncodeToString(sum[:4]))
}()

// LiveVersion returns the schema directory name this build reads and
// writes — what GC keeps.
func LiveVersion() string { return liveVersionDir }

// keyPrefix is the constant head of every key's hashed text.
var keyPrefix = fmt.Sprintf("rcache/v%d run{%s}\n", SchemaVersion, runShape)

// KeyOf fingerprints a cell identity. The canonical encodings enumerate
// every field of Config and Spec (enforced by tests in those packages), so
// any parameter change — core count, cache geometry, scheduler overheads,
// workload size, data seed — produces a different key.
//
// The hashed text is keyPrefix, then "cfg=<Config.Fingerprint>\n",
// "spec=<Spec.Fingerprint>\n" and "sched=%s\nseed=%d\nquick=%t\n", written
// with appends into one stack buffer (TestPinnedOnDiskContract pins a key).
func KeyOf(cfg machine.Config, spec workloads.Spec, sched string, seed uint64, quick bool) Key {
	var buf [2048]byte
	b := append(buf[:0], keyPrefix...)
	b = append(append(append(b, "cfg="...), cfg.Fingerprint()...), '\n')
	b = append(append(append(b, "spec="...), spec.Fingerprint()...), '\n')
	b = append(append(b, "sched="...), sched...)
	b = strconv.AppendUint(append(b, "\nseed="...), seed, 10)
	b = strconv.AppendBool(append(b, "\nquick="...), quick)
	return sha256.Sum256(append(b, '\n'))
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	MemHits      int64 // served from the in-process map
	DiskHits     int64 // served from the persistent layer
	RemoteHits   int64 // served by the remote tier (and filled locally)
	Misses       int64 // computed by the caller's function
	Dedup        int64 // blocked on an identical in-flight computation
	Stores       int64 // records written to disk
	Corrupt      int64 // unreadable or mismatched disk records discarded
	RemoteStores int64 // write-backs acknowledged by remote servers (fleet total)
	RemoteErrs   int64 // remote anomalies degraded to misses/drops (fleet total; one tick latches a dead server down)
}

// Hits returns the lookups that avoided a fresh simulation.
func (s Stats) Hits() int64 { return s.MemHits + s.DiskHits + s.RemoteHits + s.Dedup }

// Store is a two-tier (memory + optional disk) memoization table with
// singleflight deduplication. The zero value is not usable; construct with
// NewMemory or Open. All methods are safe for concurrent use.
type Store struct {
	dir      string  // version directory; "" = memory-only
	readonly bool    // consult disk/remote but never write either
	remote   *remote // optional networked tier; nil = local-only

	mu       sync.Mutex
	mem      map[Key]metrics.Run
	inflight map[Key]*flight

	memHits, diskHits, remoteHits, misses, dedup, stores, corrupt atomic.Int64
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	run  metrics.Run
	err  error
}

// NewMemory returns a store with no persistent layer: intra-process
// deduplication and singleflight only.
func NewMemory() *Store {
	return &Store{mem: map[Key]metrics.Run{}, inflight: map[Key]*flight{}}
}

// Open returns a store backed by dir, creating the current schema-version
// subdirectory. readonly stores consult existing entries but never touch
// the directory — not even to create it — so they work against a shared
// cache mounted read-only (the CI use case).
func Open(dir string, readonly bool) (*Store, error) {
	s := NewMemory()
	s.dir = filepath.Join(dir, liveVersionDir)
	s.readonly = readonly
	if !readonly {
		if err := os.MkdirAll(s.dir, 0o777); err != nil {
			return nil, fmt.Errorf("rcache: %w", err)
		}
	}
	return s, nil
}

// AttachRemote layers one or more cached servers (see cmd/cached) behind
// the disk tier: lookups missing locally are fetched from the fleet and
// filled into the local store; computed cells are written back
// asynchronously. urls is a comma-separated list; with more than one
// server, each key lives on one of them by rendezvous hashing (see
// fleet.go). Call before the first Do. Errors reject malformed URLs and
// duplicate servers — an unreachable server is detected lazily and degrades
// that shard to misses rather than failing anything.
func (s *Store) AttachRemote(urls string) error {
	if s.remote != nil {
		return fmt.Errorf("rcache: remote already attached")
	}
	r, err := newRemote(urls)
	if err != nil {
		return err
	}
	s.remote = r
	return nil
}

// Close drains pending remote write-backs. CLI processes must call it
// before reading final stats or exiting — results computed in the last
// moments of a sweep would otherwise never reach the shared server. A
// store with no remote tier needs no Close; it is a no-op there.
func (s *Store) Close() {
	if s.remote != nil {
		s.remote.close()
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	st := Stats{
		MemHits:    s.memHits.Load(),
		DiskHits:   s.diskHits.Load(),
		RemoteHits: s.remoteHits.Load(),
		Misses:     s.misses.Load(),
		Dedup:      s.dedup.Load(),
		Stores:     s.stores.Load(),
		Corrupt:    s.corrupt.Load(),
	}
	if s.remote != nil {
		st.RemoteStores = s.remote.storesTotal()
		st.RemoteErrs = s.remote.errsTotal()
	}
	return st
}

// RegisterMetrics exposes the store's counters on a registry as the
// rcache_* family — the same numbers Stats snapshots, under stable
// exposition names. Remote-tier counters register only when a remote is
// attached; call after AttachRemote.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	const hitsHelp = "lookups served without a fresh simulation, by tier (dedup = singleflight wait)"
	r.CounterFunc("rcache_hits_total", `tier="mem"`, hitsHelp, s.memHits.Load)
	r.CounterFunc("rcache_hits_total", `tier="disk"`, hitsHelp, s.diskHits.Load)
	r.CounterFunc("rcache_hits_total", `tier="remote"`, hitsHelp, s.remoteHits.Load)
	r.CounterFunc("rcache_hits_total", `tier="dedup"`, hitsHelp, s.dedup.Load)
	r.CounterFunc("rcache_misses_total", "", "lookups resolved by computing the cell", s.misses.Load)
	r.CounterFunc("rcache_stores_total", "", "records written to the local disk tier", s.stores.Load)
	r.CounterFunc("rcache_corrupt_total", "", "unreadable or mismatched disk records discarded", s.corrupt.Load)
	if s.remote != nil {
		r.CounterFunc("rcache_remote_stores_total", "", "write-backs acknowledged by remote servers", s.remote.storesTotal)
		r.CounterFunc("rcache_remote_errors_total", "", "remote anomalies degraded to misses or drops", s.remote.errsTotal)
		for _, t := range s.remote.servers {
			labels := fmt.Sprintf("shard=%q", t.base)
			r.CounterFunc("rcache_shard_gets_total", labels, "GET requests sent to this shard", t.gets.Load)
			r.CounterFunc("rcache_shard_hits_total", labels, "valid records served by this shard", t.hits.Load)
			r.CounterFunc("rcache_shard_errors_total", labels, "anomalies attributed to this shard", t.errs.Load)
			r.CounterFunc("rcache_shard_stores_total", labels, "write-backs acknowledged by this shard", t.stores.Load)
			r.CounterFunc("rcache_shard_latches_total", labels, "up->down transitions for this shard", t.latches.Load)
			r.GaugeFunc("rcache_shard_latched", labels, "1 while this client has the shard latched down", func() float64 {
				if t.latched() {
					return 1
				}
				return 0
			})
		}
	}
}

// Do returns the cached Run for key, or runs compute once — however many
// goroutines ask concurrently — and caches its result. Errors are returned
// to every waiter of that flight and are not cached, so a failed cell is
// recomputed on the next request.
func (s *Store) Do(key Key, compute func() (metrics.Run, error)) (metrics.Run, error) {
	return s.DoSpan(key, nil, compute)
}

// DoSpan is Do with an optional cell span (nil is Do exactly). Tier
// consultation is timed into the span's cache-lookup phase — for a
// singleflight waiter that is the whole wait on the winner's computation —
// persistence of a computed or read-through record into its store phase, and
// the resolving tier is recorded as the span's outcome: "mem-hit",
// "disk-hit", "remote-hit", "dedup", or "computed". The span never
// influences what Do returns; it only observes.
func (s *Store) DoSpan(key Key, sp *obs.Span, compute func() (metrics.Run, error)) (metrics.Run, error) {
	name := key.String() // the lookup's one hex form: span, file, URL, record
	sp.SetKey(name)
	endLookup := sp.StartPhase(obs.PhaseCacheLookup)
	s.mu.Lock()
	if r, ok := s.mem[key]; ok {
		s.mu.Unlock()
		s.memHits.Add(1)
		endLookup()
		sp.SetOutcome("mem-hit")
		return r, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.dedup.Add(1)
		// A singleflight waiter lends its worker-budget token back to the
		// pool while parked on the winning flight, so the core it was
		// entitled to computes other cells instead of idling behind a
		// duplicate key.
		runner.Lend(func() { <-f.done })
		endLookup()
		sp.SetOutcome("dedup")
		return f.run, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()
	endLookup()

	f.run, f.err = s.fill(key, name, sp, compute)

	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		s.mem[key] = f.run
	}
	s.mu.Unlock()
	close(f.done)
	return f.run, f.err
}

// fill resolves a memory miss in tier order: disk, remote, then the compute
// function. A remote hit is read-through-filled into the local disk tier (so
// the next process needs no network); a computed result is persisted locally
// and written back to the remote asynchronously. Only computed cells are
// written back — a cell found on disk was either computed here once already
// (and written back then) or arrived from a shared store in the first place,
// so re-announcing it would just flood the server with PUTs it has.
func (s *Store) fill(key Key, name string, sp *obs.Span, compute func() (metrics.Run, error)) (metrics.Run, error) {
	if s.dir != "" {
		end := sp.StartPhase(obs.PhaseCacheLookup)
		r, ok := s.diskGet(name)
		end()
		if ok {
			s.diskHits.Add(1)
			sp.SetOutcome("disk-hit")
			return r, nil
		}
	}
	if s.remote != nil {
		end := sp.StartPhase(obs.PhaseCacheLookup)
		r, ok := s.remote.get(key, name)
		end()
		if ok {
			s.remoteHits.Add(1)
			sp.SetOutcome("remote-hit")
			if s.dir != "" && !s.readonly {
				endStore := sp.StartPhase(obs.PhaseStore)
				if s.diskPut(name, r) {
					s.stores.Add(1)
				}
				endStore()
			}
			return r, nil
		}
	}
	s.misses.Add(1)
	sp.SetOutcome("computed")
	r, err := compute()
	if err != nil {
		return r, err
	}
	if !s.readonly {
		endStore := sp.StartPhase(obs.PhaseStore)
		b, encErr := encodeRecord(name, r)
		if encErr == nil {
			if s.dir != "" && writeEntry(s.dir, name, b) {
				s.stores.Add(1)
			}
			if s.remote != nil {
				s.remote.put(key, name, b)
			}
		}
		endStore()
	}
	return r, nil
}

// path is the entry file of the key whose hex form is name.
func (s *Store) path(name string) string { return filepath.Join(s.dir, name+".json") }

// diskGet loads a record, tolerating corruption: a decode or identity
// failure on successfully read bytes counts as a miss and deletes the bad
// entry (when writable) so it is not re-parsed on every lookup. Read errors
// other than not-exist — EMFILE under a wide fan-out, transient EACCES on a
// shared mount — are just misses: the entry may be perfectly valid, so it
// is never deleted on the strength of a failed read. A hit refreshes the
// entry's timestamps — the "atime" EnforceBudget's LRU orders on (kernel
// atime is unreliable under noatime mounts).
func (s *Store) diskGet(name string) (metrics.Run, bool) {
	path := s.path(name)
	b, err := os.ReadFile(path)
	if err != nil {
		return metrics.Run{}, false
	}
	r, ok := decodeRecord(b, name)
	if !ok {
		s.discard(path)
		return metrics.Run{}, false
	}
	if !s.readonly {
		now := time.Now()
		os.Chtimes(path, now, now)
	}
	return r, true
}

// discard counts and best-effort removes a corrupt entry file.
func (s *Store) discard(path string) {
	s.corrupt.Add(1)
	if !s.readonly {
		os.Remove(path)
	}
}

// diskPut encodes and writes one record into the store's version directory.
// Failures are swallowed: the cache degrades to a miss on the next run
// rather than failing the sweep.
func (s *Store) diskPut(name string, r metrics.Run) bool {
	b, err := encodeRecord(name, r)
	if err != nil {
		return false
	}
	return writeEntry(s.dir, name, b)
}

// writeEntry atomically lands entry bytes as dir/<name>.json via a temp file
// in the same directory and a rename, so readers never observe a torn entry.
// Shared by the disk tier and the HTTP server (whose store is the same
// layout). Failures report false and leave no debris.
func writeEntry(dir, name string, b []byte) bool {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return false
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	// CreateTemp makes the file 0600; loosen to world-readable (but only
	// owner-writable — records must not be tamperable by other users) so a
	// cache populated by one user serves another, the shared-store use
	// case -cache-readonly exists for.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name+".json")); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}

// isSchemaDirName reports whether name matches the exact shape of a schema
// directory this package creates: v<digits>-<8 hex chars>. GC must only
// ever delete directories this package made — users may point -cache at a
// directory holding unrelated data (a `v8/` or `v2.1/` of someone else's),
// and everything that does not match the full pattern is left alone.
func isSchemaDirName(name string) bool {
	if len(name) < 2 || name[0] != 'v' {
		return false
	}
	i := 1
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	if i == 1 || i+9 != len(name) || name[i] != '-' {
		return false
	}
	for _, c := range name[i+1:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// GC prunes entries under dead schema versions: every schema subdirectory of
// dir other than the live one — older SchemaVersions, and directories whose
// metrics.Run shape hash no longer matches, whose keys can never be looked
// up again — is removed, along with stray temp files left by interrupted
// writes in the live version. It returns the number of directories removed
// and the number of entries they held.
func GC(dir string) (versions, entries int, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("rcache: gc: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if !de.IsDir() || !isSchemaDirName(name) {
			continue
		}
		if name == liveVersionDir {
			// Live version: sweep only abandoned temp files.
			live, _ := os.ReadDir(filepath.Join(dir, name))
			for _, f := range live {
				if strings.HasPrefix(f.Name(), "tmp-") {
					os.Remove(filepath.Join(dir, name, f.Name()))
				}
			}
			continue
		}
		dead, _ := os.ReadDir(filepath.Join(dir, name))
		entries += len(dead)
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return versions, entries, fmt.Errorf("rcache: gc %s: %w", name, err)
		}
		versions++
	}
	return versions, entries, nil
}
