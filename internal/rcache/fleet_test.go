package rcache

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
)

// testKeys returns n distinct keys with well-spread first 8 bytes (they
// drive placement, so they must differ meaningfully — a real key is a
// SHA-256 sum and gets this for free).
func testKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		binary.BigEndian.PutUint64(keys[i][:8], uint64(i)*0x9e3779b97f4a7c15+0x1234567)
		keys[i][8] = byte(i)
		keys[i][9] = byte(i >> 8)
	}
	return keys
}

// testPlacement returns a remote over urls for placement tests only: its
// transports are built (and salted) but no worker runs, so it needs no
// close. urls must already be canonical.
func testPlacement(urls []string) *remote {
	r := &remote{servers: make([]*transport, len(urls))}
	for i, u := range urls {
		r.servers[i] = newTransport(u)
	}
	return r
}

func shardURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://shard%d:8344", i)
	}
	return urls
}

// TestHomeOrderIndependent: every client handed the same server set — in any
// order, with trailing-slash and path debris — must derive the identical
// key→server assignment, or a fleet's clients would shard past each other.
func TestHomeOrderIndependent(t *testing.T) {
	a, err := newRemote("http://s1:8344,http://s2:8344,http://s3:8344")
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	b, err := newRemote(" http://s3:8344/ ,http://s1:8344/x/y, http://s2:8344")
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for _, key := range testKeys(4096) {
		sa := a.servers[a.home(key)].base
		sb := b.servers[b.home(key)].base
		if sa != sb {
			t.Fatalf("key %s: assignment depends on list spelling (%s vs %s)", key, sa, sb)
		}
	}
}

// TestHomeBalance: SHA-256 keys are uniform and every server's score is an
// independent mix, so each server of a small fleet owns its fair share of
// the keyspace to within 10%.
func TestHomeBalance(t *testing.T) {
	keys := testKeys(32768)
	for _, nsrv := range []int{2, 3, 5, 8} {
		r := testPlacement(shardURLs(nsrv))
		counts := make([]int, nsrv)
		for _, key := range keys {
			counts[r.home(key)]++
		}
		want := float64(len(keys)) / float64(nsrv)
		for i, c := range counts {
			if ratio := float64(c) / want; ratio < 0.9 || ratio > 1.1 {
				t.Errorf("nsrv=%d: shard %d owns %d of %d keys (%.3fx fair share)", nsrv, i, c, len(keys), ratio)
			}
		}
	}
}

// churn maps keys under both fleets and returns the share that changed
// server, failing on any move the change of membership does not explain:
// a key may only leave a removed server or land on an added one.
func churn(t *testing.T, before, after []string, keys []Key) float64 {
	t.Helper()
	rb, ra := testPlacement(before), testPlacement(after)
	inBefore, inAfter := map[string]bool{}, map[string]bool{}
	for _, u := range before {
		inBefore[u] = true
	}
	for _, u := range after {
		inAfter[u] = true
	}
	moved := 0
	for _, key := range keys {
		from, to := before[rb.home(key)], after[ra.home(key)]
		if from == to {
			continue
		}
		if inAfter[from] && inBefore[to] {
			t.Fatalf("key %s moved %s -> %s between two servers in both fleets", key, from, to)
		}
		moved++
	}
	return float64(moved) / float64(len(keys))
}

// TestHomeBoundedChurn is the property rendezvous hashing shares with
// consistent hashing: removing one of N servers remaps exactly the removed
// server's keys — every key owned by a survivor keeps its assignment — and
// the remapped share is ~1/N, not the ~(N-1)/N a modulo scheme would
// reshuffle.
func TestHomeBoundedChurn(t *testing.T) {
	const nsrv = 4
	urls := shardURLs(nsrv)
	keys := testKeys(32768)
	for removed := 0; removed < nsrv; removed++ {
		rest := append(append([]string(nil), urls[:removed]...), urls[removed+1:]...)
		if frac := churn(t, urls, rest, keys); frac < 0.9/nsrv || frac > 1.1/nsrv {
			t.Errorf("removing shard %d remapped %.1f%% of keys; want ~%d%%", removed, 100*frac, 100/nsrv)
		}
	}
}

// TestHomeAddServerChurn: adding a server to N moves keys only onto the new
// server, about 1/(N+1) of them; no key moves between the old servers.
func TestHomeAddServerChurn(t *testing.T) {
	keys := testKeys(32768)
	for _, nsrv := range []int{1, 2, 4, 7} {
		urls := shardURLs(nsrv)
		// Sorted canonical order can put the new server anywhere in the
		// list; inserting it first checks that index shifts move nothing.
		grown := append([]string{"http://added:8344"}, urls...)
		want := 1 / float64(nsrv+1)
		if frac := churn(t, urls, grown, keys); frac < 0.9*want || frac > 1.1*want {
			t.Errorf("growing %d -> %d servers moved %.1f%% of keys; want ~%.1f%%", nsrv, nsrv+1, 100*frac, 100*want)
		}
	}
}

// TestHomeZeroAlloc: placement runs on every remote get and put, so it must
// not allocate.
func TestHomeZeroAlloc(t *testing.T) {
	r := testPlacement([]string{"http://a:1", "http://b:1", "http://c:1"})
	keys := testKeys(64)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, key := range keys {
			r.home(key)
		}
	})
	if allocs != 0 {
		t.Fatalf("remote.home allocates %.1f per 64 lookups; the hot path must be allocation-free", allocs)
	}
}

// TestNewRemoteValidation: the fleet constructor is where operator typos die.
func TestNewRemoteValidation(t *testing.T) {
	cases := []struct {
		urls    string
		wantErr string
	}{
		{"", "at least one"},
		{" , ,", "at least one"},
		{"ftp://x:1", "http(s)"},
		{"http://a:1,http://a:1", "twice"},
		{"http://a:1,http://a:1/", "twice"}, // canonicalization collapses the slash
		{"http://a:1,http://b:1,http://c:1", ""},
	}
	for _, tc := range cases {
		r, err := newRemote(tc.urls)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("newRemote(%q): unexpected error %v", tc.urls, err)
			} else {
				r.close()
			}
			continue
		}
		if err == nil {
			r.close()
			t.Errorf("newRemote(%q): want error containing %q, got nil", tc.urls, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("newRemote(%q): error %q does not contain %q", tc.urls, err, tc.wantErr)
		}
	}
}

// newTestFleet starts n cached servers and returns them with the
// comma-separated URL list a client attaches to.
func newTestFleet(t *testing.T, n int) ([]*Server, []string, string) {
	t.Helper()
	srvs := make([]*Server, n)
	urls := make([]string, n)
	for i := range srvs {
		srv, ts := newTestServer(t, 0)
		srvs[i], urls[i] = srv, ts.URL
	}
	return srvs, urls, strings.Join(urls, ",")
}

// TestFleetShardsWrites: a cold client writing through a 3-server fleet must
// spread records across every shard (hashing, not primary/backup), and a
// second cold client must find each record on the shard its home names.
func TestFleetShardsWrites(t *testing.T) {
	srvs, _, list := newTestFleet(t, 3)
	keys := testKeys(64)
	want := testRun()

	a := NewMemory()
	if err := a.AttachRemote(list); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, err := a.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()

	var total int64
	for i, srv := range srvs {
		entries := cachedSample(t, srv, "cached_store_entries")
		if entries == 0 {
			t.Errorf("shard %d received no entries; sharding is not spreading", i)
		}
		total += entries
	}
	if total != int64(len(keys)) {
		t.Fatalf("fleet holds %d entries for %d keys; each must be stored exactly once", total, len(keys))
	}

	b := NewMemory()
	if err := b.AttachRemote(list); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, key := range keys {
		got, err := b.Do(key, func() (metrics.Run, error) {
			t.Fatalf("key %s: cold client recomputed a cell the fleet holds", key)
			return metrics.Run{}, nil
		})
		if err != nil || got != want {
			t.Fatalf("key %s: run %+v err %v", key, got, err)
		}
	}
	if st := b.Stats(); st.RemoteHits != int64(len(keys)) || st.Misses != 0 {
		t.Fatalf("cold client stats %+v: want %d pure remote hits", st, len(keys))
	}
}

func mustCanonical(t *testing.T, raw string) string {
	t.Helper()
	c, err := parseServerURL(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// shard is the label of a canonical server URL's rcache_shard_* series.
func shard(url string) string { return fmt.Sprintf("shard=%q", url) }

// TestFleetNeverServesWrongKey: a confused or malicious shard answering 200
// with some other key's record must be refused — the key recomputes, its
// honest peer's keys are served as usual, and the refusals show in that
// shard's error counter. A shard is only trusted for the bytes its key
// names.
func TestFleetNeverServesWrongKey(t *testing.T) {
	keys := testKeys(32)
	want := testRun()
	wrong := testRun()
	wrong.Cycles += 12345

	// An evil server that answers every GET with a record for a key the
	// client did not ask for (valid schema, wrong identity).
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		b, _ := encodeRecord(Key{0xEE}.String(), wrong)
		w.Write(b)
	}))
	defer evil.Close()
	_, good := newTestServer(t, 0)

	// Seed the honest server with every record directly.
	seed := NewMemory()
	if err := seed.AttachRemote(good.URL); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, err := seed.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	s := NewMemory()
	if err := s.AttachRemote(evil.URL + "," + good.URL); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	evilURL := mustCanonical(t, evil.URL)
	onEvil := 0
	for _, key := range keys {
		if s.remote.servers[s.remote.home(key)].base == evilURL {
			onEvil++
		}
		got, err := s.Do(key, func() (metrics.Run, error) { return want, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("key %s: served the evil shard's wrong-key record %+v", key, got)
		}
	}
	if onEvil == 0 || onEvil == len(keys) {
		t.Fatalf("%d of %d keys homed on the evil shard; the test needs both shards in play", onEvil, len(keys))
	}
	st := s.Stats()
	if st.Misses != int64(onEvil) || st.RemoteHits != int64(len(keys)-onEvil) {
		t.Fatalf("stats %+v: want the %d evil-homed keys recomputed and the rest served remotely", st, onEvil)
	}
	if errs := testutil.Series(t, s.RegisterMetrics, "rcache_shard_errors_total"); errs[shard(evilURL)] != float64(onEvil) || errs[shard(mustCanonical(t, good.URL))] != 0 {
		t.Fatalf("shard errors %v: want one refusal per evil-homed key (%d) and none on the honest shard", errs, onEvil)
	}
}

// TestFleetShardStatsAndLatch: per-shard series single out a dead shard —
// exactly one shard latched, its peers untouched — which is what the CI
// fleet job greps for.
func TestFleetShardStatsAndLatch(t *testing.T) {
	_, urls, _ := newTestFleet(t, 2)
	const deadURL = "http://127.0.0.1:1"

	s := NewMemory()
	if err := s.AttachRemote(urls[0] + "," + deadURL); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := testRun()
	for _, key := range testKeys(64) {
		if _, err := s.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
	}
	latched := testutil.Series(t, s.RegisterMetrics, "rcache_shard_latched")
	latches := testutil.Series(t, s.RegisterMetrics, "rcache_shard_latches_total")
	errs := testutil.Series(t, s.RegisterMetrics, "rcache_shard_errors_total")
	dead, live := shard(deadURL), shard(mustCanonical(t, urls[0]))
	if len(latched) != 2 {
		t.Fatalf("rcache_shard_latched %v: want 2 shards", latched)
	}
	if latched[dead] != 1 || latches[dead] != 1 || errs[dead] != 1 {
		t.Fatalf("dead shard: latched %v latches %v errors %v; want latched with exactly one latch and one counted error", latched, latches, errs)
	}
	if latched[live] != 0 || errs[live] != 0 {
		t.Fatalf("live shard: latched %v errors %v; want it untouched by the dead shard's errors", latched, errs)
	}
}

func BenchmarkHome(b *testing.B) {
	r := testPlacement(shardURLs(8))
	keys := testKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.home(keys[i&1023])
	}
	_ = sink
}

// benchFleet starts n real loopback servers, seeds nkeys records across
// them, and returns an attached fleet client. Benchmark plumbing, so it
// takes *testing.B.
func benchFleet(b *testing.B, n, nkeys int) (*remote, []Key) {
	b.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv, err := NewServer(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		b.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	list := strings.Join(urls, ",")
	keys := testKeys(nkeys)
	if nkeys > 0 {
		seed := NewMemory()
		if err := seed.AttachRemote(list); err != nil {
			b.Fatal(err)
		}
		run := testRun()
		for _, key := range keys {
			if _, err := seed.Do(key, func() (metrics.Run, error) { return run, nil }); err != nil {
				b.Fatal(err)
			}
		}
		seed.Close()
	}
	r, err := newRemote(list)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.close)
	return r, keys
}

// BenchmarkFleetWarmGet measures aggregate warm get throughput against N
// loopback servers from one persistent client with concurrent workers — the
// steady-state shape of a warm parallel sweep (contrast BenchmarkRemoteWarmGet,
// which pays store setup and TCP dial per get: the cold-client shape).
// ns/op is per get; gets/s = 1e9 / (ns/op).
func BenchmarkFleetWarmGet(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			r, keys := benchFleet(b, n, 256)
			var idx atomic.Int64
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					key := keys[int(idx.Add(1))&255]
					if _, ok := r.get(key, key.String()); !ok {
						b.Error("warm fleet missed")
						return
					}
				}
			})
		})
	}
}

// BenchmarkFleetPut measures the write-back path's cost to the caller —
// put() queues and returns; workers drain to the fleet — against 3 servers.
func BenchmarkFleetPut(b *testing.B) {
	r, _ := benchFleet(b, 3, 0)
	run := testRun()
	keys := testKeys(4096)
	names := make([]string, len(keys))
	bodies := make([][]byte, len(keys))
	for i, key := range keys {
		names[i] = key.String()
		bd, err := encodeRecord(names[i], run)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = bd
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.put(keys[i&4095], names[i&4095], bodies[i&4095])
	}
	b.StopTimer()
	r.close() // include nothing of the drain
}

// TestCloseDrainIsBounded: a server that accepts connections but never
// answers a PUT must not hang Store.Close. The first write-back to reach it
// times out after remoteTimeout and latches it down, and the latch skips
// the rest of the queue, so the drain costs about one timeout however many
// write-backs were queued. Not skipped under -short: CI's race job runs it.
func TestCloseDrainIsBounded(t *testing.T) {
	defer func(old time.Duration) { remoteTimeout = old }(remoteTimeout)
	remoteTimeout = 200 * time.Millisecond
	const bound = 5 * time.Second

	release := make(chan struct{})
	var puts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		puts.Add(1)
		select { // never answer; return only once the client gives up
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	s := NewMemory()
	if err := s.AttachRemote(ts.URL); err != nil {
		t.Fatal(err)
	}
	const cells = 64
	for _, key := range testKeys(cells) {
		body, err := encodeRecord(key.String(), testRun())
		if err != nil {
			t.Fatal(err)
		}
		s.remote.put(key, key.String(), body)
	}
	start := time.Now()
	s.Close()
	if took := time.Since(start); took > bound {
		t.Fatalf("Store.Close took %v with %d write-backs queued for a silent server; want under %v", took, cells, bound)
	}
	st := s.Stats()
	if st.RemoteStores != 0 || st.RemoteErrs != 1 || puts.Load() == 0 || puts.Load() >= cells {
		t.Fatalf("stats %+v after %d PUTs reached the server: want one latch, no stores, and the queue skipped after it", st, puts.Load())
	}
}
