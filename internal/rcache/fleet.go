package rcache

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// The fleet layer spreads the remote tier over N cached instances,
// memcached-style: servers never know about each other, and every client
// derives the same key→server assignment from the server list alone, by
// rendezvous (highest-random-weight) hashing. Each canonical URL carries a
// salt (newTransport); a key's home is the server whose salt, mixed with
// the key's first 8 bytes (already uniform: keys are SHA-256 sums), scores
// highest. A score depends only on (key, URL), so placement ignores list
// order, and removing or adding one of N servers moves only the keys it
// held or wins, ~1/N (fleet_test.go pins both). A dead shard — latched down
// per server, see remote.go — costs exactly its own keys a recomputation:
// output stays byte-identical whatever subset of the fleet is alive.

type wbItem struct {
	t    *transport
	name string // the key's hex form
	body []byte
}

// remote is the networked tier Store.fill consults: the fleet's servers
// plus one bounded asynchronous write-back queue. A single -cache-remote
// URL is a one-server fleet. Reads go to the key's home and fill the local
// disk tier on a hit; computed cells are queued for their home and PUT by
// background workers while the sweep keeps simulating, and Store.Close
// drains the queue. If the fleet can't keep up, overflow write-backs are
// dropped (and counted), never blocking the simulation path.
type remote struct {
	servers []*transport // canonical (sorted-URL) order; index = home id

	mu     sync.Mutex // guards queue-vs-close
	closed bool
	queue  chan wbItem
	wg     sync.WaitGroup
}

// writebackQueue bounds, per server, the memory a burst of cold cells can
// pin while the fleet lags.
const writebackQueue = 512

// newRemote builds the fleet tier from a comma-separated URL list.
// Canonicalization (scheme://host), deduplication rejection, and sorting
// happen here, so every client handed the same server set — in any order,
// with any trailing-slash debris — derives the identical placement.
func newRemote(urls string) (*remote, error) {
	var canon []string
	for _, raw := range strings.Split(urls, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		c, err := parseServerURL(raw)
		if err != nil {
			return nil, err
		}
		canon = append(canon, c)
	}
	if len(canon) == 0 {
		return nil, fmt.Errorf("rcache: remote %q: need at least one http(s)://host[:port]", urls)
	}
	sort.Strings(canon)
	for i := 1; i < len(canon); i++ {
		if canon[i] == canon[i-1] {
			return nil, fmt.Errorf("rcache: remote list names %s twice", canon[i])
		}
	}
	r := &remote{
		servers: make([]*transport, len(canon)),
		queue:   make(chan wbItem, writebackQueue*len(canon)),
	}
	for i, u := range canon {
		r.servers[i] = newTransport(u)
	}
	// Two workers per server drain the queue concurrently so one slow or
	// latched shard doesn't convoy its peers' write-backs (capped: beyond 8
	// workers the bottleneck is the single client host, not the fleet).
	for range min(2*len(canon), 8) {
		r.wg.Add(1)
		go r.worker()
	}
	return r, nil
}

// home returns the index of key's server: the highest score
// splitmix64(key[:8] ^ salt) over the fleet, ties to the lower index.
// Allocation-free; one mix per server.
func (r *remote) home(key Key) int {
	k := binary.BigEndian.Uint64(key[:8])
	best, top := 0, splitmix64(k^r.servers[0].salt)
	for i := 1; i < len(r.servers); i++ {
		if w := splitmix64(k ^ r.servers[i].salt); w > top {
			best, top = i, w
		}
	}
	return best
}

// splitmix64 is the SplitMix64 output function (Steele, Lea & Flood 2014),
// a bijective mix: XOR-ing a salt into the key gives each server an
// unrelated score.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// get asks key's home server; any anomaly there is a miss. name is the
// key's hex form.
func (r *remote) get(key Key, name string) (metrics.Run, bool) {
	return r.servers[r.home(key)].get(name)
}

// put queues a write-back of an encoded record for key's home server. It
// never blocks: a full queue drops the item (counted against the server),
// and a server latched down is skipped — the latch already counted, and its
// items would only displace live ones.
func (r *remote) put(key Key, name string, body []byte) {
	t := r.servers[r.home(key)]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || t.latched() {
		return
	}
	select {
	case r.queue <- wbItem{t, name, body}:
	default:
		t.errs.Add(1)
	}
}

func (r *remote) worker() {
	defer r.wg.Done()
	for item := range r.queue {
		item.t.put(item.name, item.body)
	}
}

// storesTotal and errsTotal sum the per-shard counters (the rcache_shard_*
// series) into the fleet totals Stats and rcache_remote_* report.
func (r *remote) storesTotal() (n int64) {
	for _, t := range r.servers {
		n += t.stores.Load()
	}
	return n
}

func (r *remote) errsTotal() (n int64) {
	for _, t := range r.servers {
		n += t.errs.Load()
	}
	return n
}

// close drains pending write-backs and stops the workers. Safe to call more
// than once; puts after close are dropped silently.
func (r *remote) close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.queue)
	}
	r.mu.Unlock()
	//repro:allow tokenhold shutdown drain on the CLI main goroutine via Store.Close, after every Stream has returned — no budget token is held here
	r.wg.Wait()
}
