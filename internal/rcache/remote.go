package rcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// The remote tier talks to cmd/cached servers, layered behind memory and
// disk in Store.fill. Two properties make a dumb GET/PUT server sufficient
// and the layering safe:
//
//   - Keys are content addresses: the key *is* the identity of the bytes, so
//     there is no coherence problem. An entry is immutable; two writers of
//     the same key wrote the same record; a stale read is impossible.
//   - Every tier degrades to "miss": a dead, slow, or corrupt remote must
//     never fail a sweep, only cost it a recomputation. A transport error
//     latches that server down for a re-probe interval, so a sweep against
//     an unreachable server pays one failed dial per interval, not one per
//     cell — and a server that comes back is picked up by the next probe.
//
// This file is the per-server layer: one transport per cached instance,
// owning its connection, its latch, its placement salt and its counters.
// How a set of transports composes into a tier — rendezvous placement and
// the shared write-back queue — lives in fleet.go.

// maxEntryBytes bounds a record on the wire (and in the server): real
// records are a few hundred bytes, so 8 MiB is pure paranoia against a
// confused or malicious peer.
const maxEntryBytes = 8 << 20

// remoteTimeout bounds every request to a cache server. The server does
// O(file read) work per request; anything slower than this is a sick server
// the transport should latch away from rather than wait on. It also bounds
// Store.Close: a silent server costs the drain one timeout, then its latch
// skips the rest of its queue. A var so tests can shrink it.
var remoteTimeout = 10 * time.Second

// reprobeInterval is how long a latched transport stays down before one
// caller is allowed through to probe the server again. Long enough that a
// dead server costs a sweep a handful of failed dials rather than one per
// cell; short enough that a restarted server rejoins within a human's
// attention span. A var so tests can shrink it.
var reprobeInterval = 5 * time.Second

// transport is one cache server: its canonical base URL, its HTTP client,
// its latch, and its counters. All methods are safe for concurrent use.
//
// The latch is a deadline, not a bool: a transport error latches the server
// down until now+reprobeInterval. When the deadline passes, exactly one
// caller (the winner of a CAS that extends the deadline) carries its real
// request through as a probe; everyone else keeps missing cheaply. A
// successful response — including a clean 404 — clears the latch, so a
// server that was restarted rejoins the tier without operator action.
type transport struct {
	base   string // server root, no trailing slash; entries live under /cache/<version>/<key>
	salt   uint64 // first 8 bytes of sha256(base): this server's rendezvous salt (fleet.go)
	client *http.Client

	// downUntil is 0 when the server is up, else the unix-nano deadline the
	// latch holds until. Transitions: fail() arms it, a successful probe
	// clears it.
	downUntil atomic.Int64

	gets    atomic.Int64 // GET requests actually sent (not latched short-circuits)
	hits    atomic.Int64 // GETs answered 200 with a valid record
	errs    atomic.Int64 // transport failures, bad statuses, corrupt responses, dropped write-backs
	stores  atomic.Int64 // write-backs acknowledged by the server
	latches atomic.Int64 // up->down transitions
}

// parseServerURL canonicalizes one server URL to scheme://host so that
// equivalent spellings (trailing slash, path debris) collapse to one
// transport identity — placement hashes this string.
func parseServerURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("rcache: remote %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("rcache: remote %q: need http(s)://host[:port]", raw)
	}
	return (&url.URL{Scheme: u.Scheme, Host: u.Host}).String(), nil
}

// sharedHTTPTransport is one process-wide connection pool for every cache
// server (http.Transport pools per host internally). Shared rather than
// per-transport so stores that come and go — tests, short-lived CLIs —
// reuse warm connections instead of leaking idle ones; deeper than the
// default MaxIdleConnsPerHost of 2, which would churn TCP connections as
// soon as more than two workers miss into the same shard at once.
var sharedHTTPTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}()

func newTransport(canonicalURL string) *transport {
	sum := sha256.Sum256([]byte(canonicalURL))
	return &transport{
		base:   canonicalURL,
		salt:   binary.BigEndian.Uint64(sum[:8]),
		client: &http.Client{Timeout: remoteTimeout, Transport: sharedHTTPTransport},
	}
}

// url returns the entry URL for key on this server.
func (t *transport) url(key Key) string {
	return t.base + "/cache/" + liveVersionDir + "/" + key.String()
}

// latched reports whether the server is currently latched down. The latch
// clears only on a successful probe, so a dead server reads latched even
// between re-probe deadlines.
func (t *transport) latched() bool { return t.downUntil.Load() != 0 }

// admit decides whether a request may touch the network. Up: yes. Latched
// with an unexpired deadline: no. Latched with an expired deadline: the one
// caller that wins the deadline-extending CAS probes; the rest keep
// missing. This bounds a dead server's cost to one timeout per
// reprobeInterval however many goroutines are sweeping.
func (t *transport) admit() bool {
	u := t.downUntil.Load()
	if u == 0 {
		return true
	}
	now := time.Now().UnixNano()
	if now < u {
		return false
	}
	return t.downUntil.CompareAndSwap(u, now+int64(reprobeInterval))
}

// fail latches the server down for a re-probe interval. Only an up->down
// transition counts an error, so a dead server costs one counter tick per
// interval however many goroutines race into it.
func (t *transport) fail() {
	now := time.Now().UnixNano()
	if t.downUntil.Swap(now+int64(reprobeInterval)) == 0 {
		t.errs.Add(1)
		t.latches.Add(1)
	}
}

// ok clears the latch: the server answered, whatever it answered.
func (t *transport) ok() { t.downUntil.Store(0) }

// get fetches and validates one record from this server. Any anomaly —
// transport error, bad status, oversized or corrupt body, a record for the
// wrong key — is a miss; transport errors additionally latch the server
// down for a re-probe interval.
func (t *transport) get(key Key) (metrics.Run, bool) {
	if !t.admit() {
		return metrics.Run{}, false
	}
	t.gets.Add(1)
	resp, err := t.client.Get(t.url(key))
	if err != nil {
		t.fail()
		return metrics.Run{}, false
	}
	t.ok()
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return metrics.Run{}, false // clean miss: server healthy, entry absent
	default:
		t.errs.Add(1)
		return metrics.Run{}, false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil {
		t.fail()
		return metrics.Run{}, false
	}
	if len(b) > maxEntryBytes {
		t.errs.Add(1)
		return metrics.Run{}, false
	}
	run, ok := decodeRecord(b, key)
	if !ok {
		// A 200 with a body that is not this key's record: a confused proxy
		// or a tampered entry. Counted and refused, but not worth latching
		// the server down over one entry.
		t.errs.Add(1)
		return metrics.Run{}, false
	}
	t.hits.Add(1)
	return run, true
}

// put synchronously PUTs an already-encoded record to this server. Called
// from write-back workers, never the simulation path.
func (t *transport) put(key Key, body []byte) {
	if !t.admit() {
		return // designed degradation: the latch already counted
	}
	req, err := http.NewRequest(http.MethodPut, t.url(key), bytes.NewReader(body))
	if err != nil {
		t.errs.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		t.fail()
		return
	}
	t.ok()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.errs.Add(1)
		return
	}
	t.stores.Add(1)
}
