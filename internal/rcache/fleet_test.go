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
	"repro/internal/obs"
)

// testKeys returns n distinct keys with well-spread ring positions (the
// first 8 bytes drive placement, so they must differ meaningfully — a real
// key is a SHA-256 sum and gets this for free).
func testKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		binary.BigEndian.PutUint64(keys[i][:8], uint64(i)*0x9e3779b97f4a7c15+0x1234567)
		keys[i][8] = byte(i)
		keys[i][9] = byte(i >> 8)
	}
	return keys
}

// TestRingOrderIndependent: every client handed the same server set — in any
// order, with trailing-slash and path debris — must derive the identical
// key→server assignment, or a fleet's clients would shard past each other.
func TestRingOrderIndependent(t *testing.T) {
	a, err := newRemote("http://s1:8344,http://s2:8344,http://s3:8344", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	b, err := newRemote(" http://s3:8344/ ,http://s1:8344/x/y, http://s2:8344", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	var buf [1]int
	for _, key := range testKeys(4096) {
		sa := a.servers[a.ring.successors(key, buf[:1])[0]].base
		sb := b.servers[b.ring.successors(key, buf[:1])[0]].base
		if sa != sb {
			t.Fatalf("key %s: assignment depends on list spelling (%s vs %s)", key, sa, sb)
		}
	}
}

// TestRingBalance: SHA-256 keys are uniform, so with 128 vnodes per server no
// shard of a small fleet should carry a grossly skewed share of the keyspace.
func TestRingBalance(t *testing.T) {
	for _, nsrv := range []int{2, 3, 5, 8} {
		urls := make([]string, nsrv)
		for i := range urls {
			urls[i] = fmt.Sprintf("http://shard%d:8344", i)
		}
		r := buildRing(urls)
		counts := make([]int, nsrv)
		keys := testKeys(32768)
		var buf [1]int
		for _, key := range keys {
			counts[r.successors(key, buf[:1])[0]]++
		}
		want := float64(len(keys)) / float64(nsrv)
		for i, c := range counts {
			if ratio := float64(c) / want; ratio < 0.5 || ratio > 1.7 {
				t.Errorf("nsrv=%d: shard %d owns %d of %d keys (%.2fx fair share)", nsrv, i, c, len(keys), ratio)
			}
		}
	}
}

// TestRingBoundedChurn is the property consistent hashing exists for:
// removing one of N servers remaps only the removed server's keys — every
// key owned by a survivor keeps its assignment exactly — and the remapped
// share is ~1/N, not the ~(N-1)/N a modulo scheme would reshuffle.
func TestRingBoundedChurn(t *testing.T) {
	const nsrv = 4
	urls := make([]string, nsrv)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://shard%d:8344", i)
	}
	full := buildRing(urls)
	keys := testKeys(16384)
	var buf [1]int

	for removed := 0; removed < nsrv; removed++ {
		var rest []string
		for i, u := range urls {
			if i != removed {
				rest = append(rest, u)
			}
		}
		shrunk := buildRing(rest)
		moved := 0
		for _, key := range keys {
			before := urls[full.successors(key, buf[:1])[0]]
			after := rest[shrunk.successors(key, buf[:1])[0]]
			if before == after {
				continue
			}
			if before != urls[removed] {
				t.Fatalf("key %s moved %s -> %s although its owner survived", key, before, after)
			}
			moved++
		}
		frac := float64(moved) / float64(len(keys))
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("removing shard %d remapped %.1f%% of keys; want ~%d%%", removed, 100*frac, 100/nsrv)
		}
	}
}

// TestRingSuccessors: the home set starts at the owner, contains no
// duplicates, and grows to the whole fleet when asked for more servers than
// exist.
func TestRingSuccessors(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := buildRing(urls)
	var buf [maxReplicas + 1]int
	for _, key := range testKeys(1024) {
		owner := r.successors(key, buf[:1])[0]
		home := r.successors(key, buf[:2])
		if len(home) != 2 {
			t.Fatalf("want 2 distinct successors from 3 servers, got %v", home)
		}
		if home[0] != owner {
			t.Fatalf("home set does not start at the owner: %v vs %d", home, owner)
		}
		if home[0] == home[1] {
			t.Fatalf("duplicate server in home set: %v", home)
		}
		all := r.successors(key, buf[:maxReplicas+1])
		if len(all) != len(urls) {
			t.Fatalf("asking for more successors than servers: got %v", all)
		}
	}
}

// TestNewRemoteValidation: the fleet constructor is where operator typos die.
func TestNewRemoteValidation(t *testing.T) {
	cases := []struct {
		urls     string
		replicas int
		wantErr  string
	}{
		{"", 0, "at least one"},
		{" , ,", 0, "at least one"},
		{"ftp://x:1", 0, "http(s)"},
		{"http://a:1,http://a:1", 0, "twice"},
		{"http://a:1,http://a:1/", 0, "twice"}, // canonicalization collapses the slash
		{"http://a:1", -1, "replicas"},
		{"http://a:1,http://b:1", 9, "replicas"},
		{"http://a:1,http://b:1", 2, "needs at least 3 servers"},
		{"http://a:1,http://b:1,http://c:1", 2, ""},
	}
	for _, tc := range cases {
		r, err := newRemote(tc.urls, tc.replicas)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("newRemote(%q, %d): unexpected error %v", tc.urls, tc.replicas, err)
			} else {
				r.close()
			}
			continue
		}
		if err == nil {
			r.close()
			t.Errorf("newRemote(%q, %d): want error containing %q, got nil", tc.urls, tc.replicas, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("newRemote(%q, %d): error %q does not contain %q", tc.urls, tc.replicas, err, tc.wantErr)
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
// spread records across every shard (consistent hashing, not primary/backup),
// and a second cold client must find each record on the shard the ring names.
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
		st := srv.Stats()
		if st.Entries == 0 {
			t.Errorf("shard %d received no entries; sharding is not spreading", i)
		}
		total += st.Entries
	}
	if total != int64(len(keys)) {
		t.Fatalf("fleet holds %d entries for %d keys; replicas=0 must store each exactly once", total, len(keys))
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

// TestFleetReplicationSurvivesShardLoss: with -cache-replicas 1 every record
// lives on two shards, so killing any one leaves every key readable — the
// read path falls through the dead primary to its ring successor.
func TestFleetReplicationSurvivesShardLoss(t *testing.T) {
	old := reprobeInterval
	reprobeInterval = 50 * time.Millisecond
	defer func() { reprobeInterval = old }()

	srvs, urls, list := newTestFleet(t, 3)
	keys := testKeys(48)
	want := testRun()

	a, err := (&CLI{Remote: list, Replicas: 1}).Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, err := a.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()

	var total int64
	for _, srv := range srvs {
		total += srv.Stats().Entries
	}
	if total != int64(2*len(keys)) {
		t.Fatalf("fleet holds %d entries for %d keys at replicas=1; want every record twice", total, len(keys))
	}

	// Kill each shard in turn (fresh client each time so no memory tier
	// hides the loss): every key must still be served by the survivors.
	for down := range srvs {
		deadList := list // the fleet spec still names the dead shard
		b, err := (&CLI{Remote: deadList, Replicas: 1}).Open()
		if err != nil {
			t.Fatal(err)
		}
		// Point the dead shard's transport at a closed port by latching it
		// via a real failed request: rebuild the URL to a dead server.
		for _, tr := range b.remote.servers {
			if tr.base == mustCanonical(t, urls[down]) {
				tr.base = "http://127.0.0.1:1"
			}
		}
		for _, key := range keys {
			got, err := b.Do(key, func() (metrics.Run, error) {
				t.Fatalf("key %s: recomputed with shard %d down despite replicas=1", key, down)
				return metrics.Run{}, nil
			})
			if err != nil || got != want {
				t.Fatalf("key %s with shard %d down: run %+v err %v", key, down, got, err)
			}
		}
		if st := b.Stats(); st.Misses != 0 || st.RemoteHits != int64(len(keys)) {
			t.Fatalf("shard %d down: stats %+v; want all remote hits", down, st)
		}
		b.Close()
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

// TestFleetNeverServesWrongKey: a confused or malicious shard answering 200
// with some other key's record must be refused, and the read must fall
// through to a successor holding the real record. This is the property that
// makes replication fall-through safe: a replica is only trusted for the
// bytes its key names.
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
		b, _ := encodeRecord(Key{0xEE}, wrong)
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

	s, err := (&CLI{Remote: evil.URL + "," + good.URL, Replicas: 1}).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, key := range keys {
		got, err := s.Do(key, func() (metrics.Run, error) {
			t.Fatalf("key %s: fell through past the honest replica", key)
			return metrics.Run{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("key %s: served the evil shard's wrong-key record %+v", key, got)
		}
	}
	st := s.Stats()
	if st.RemoteHits != int64(len(keys)) {
		t.Fatalf("stats %+v: want every key served remotely", st)
	}
	// Every key whose home set leads with the evil shard cost one refused
	// response; the refusals must be visible in that shard's error counter.
	var evilErrs int64
	for _, sh := range st.Shards {
		if sh.URL == mustCanonical(t, evil.URL) {
			evilErrs = sh.Errs
		}
	}
	if evilErrs == 0 {
		t.Fatalf("stats %+v: evil shard's wrong-key answers were not counted", st)
	}
}

// TestFleetShardStatsAndLatch: per-shard counters single out a dead shard —
// exactly one shard latched, its peers untouched — which is what the CI
// fleet job greps for.
func TestFleetShardStatsAndLatch(t *testing.T) {
	_, urls, _ := newTestFleet(t, 2)
	list := urls[0] + "," + "http://127.0.0.1:1"

	s := NewMemory()
	if err := s.AttachRemote(list); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := testRun()
	for _, key := range testKeys(64) {
		if _, err := s.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Shards) != 2 {
		t.Fatalf("stats %+v: want 2 shards", st)
	}
	latched := 0
	for _, sh := range st.Shards {
		if sh.Latched {
			latched++
			if sh.URL != "http://127.0.0.1:1" {
				t.Fatalf("wrong shard latched: %+v", sh)
			}
			if sh.Latches != 1 || sh.Errs != 1 {
				t.Fatalf("dead shard %+v: want exactly one latch and one counted error", sh)
			}
		} else if sh.Errs != 0 {
			t.Fatalf("live shard %+v charged with the dead shard's errors", sh)
		}
	}
	if latched != 1 {
		t.Fatalf("stats %+v: want exactly one latched shard", st)
	}
	// The registry rendering — what `sweep -stats` prints — carries the
	// same verdict per shard.
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	var b strings.Builder
	reg.WriteText(&b)
	out := "\n" + b.String()
	for _, want := range []string{
		`rcache_shard_latched{shard="http://127.0.0.1:1"} 1`,
		fmt.Sprintf("rcache_shard_latched{shard=%q} 0", mustCanonical(t, urls[0])),
	} {
		if !strings.Contains(out, "\n"+want+"\n") {
			t.Errorf("registry missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkRingPick(b *testing.B) {
	urls := make([]string, 8)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://shard%d:8344", i)
	}
	r := buildRing(urls)
	keys := testKeys(1024)
	var buf [1]int
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.successors(keys[i&1023], buf[:1])[0]
	}
	_ = sink
}

func BenchmarkRingSuccessors(b *testing.B) {
	urls := make([]string, 8)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://shard%d:8344", i)
	}
	r := buildRing(urls)
	keys := testKeys(1024)
	var buf [maxReplicas + 1]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.successors(keys[i&1023], buf[:3])
	}
}

// benchFleet starts n real loopback servers, seeds nkeys records across
// them, and returns an attached fleet client. Benchmark plumbing, so it
// takes *testing.B.
func benchFleet(b *testing.B, n, nkeys, replicas int) (*remote, []Key) {
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
		seed, err := (&CLI{Remote: list, Replicas: replicas}).Open()
		if err != nil {
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
	r, err := newRemote(list, replicas)
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
			r, keys := benchFleet(b, n, 256, 0)
			var idx atomic.Int64
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					key := keys[int(idx.Add(1))&255]
					if _, ok := r.get(key); !ok {
						b.Error("warm fleet missed")
						return
					}
				}
			})
		})
	}
}

// BenchmarkFleetPut measures the write-back path's cost to the caller —
// put() queues and returns; workers drain to the fleet — at replication 0
// and 1 against 3 servers. The fan-out cost is the delta.
func BenchmarkFleetPut(b *testing.B) {
	for _, replicas := range []int{0, 1} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			r, _ := benchFleet(b, 3, 0, replicas)
			run := testRun()
			keys := testKeys(4096)
			bodies := make([][]byte, len(keys))
			for i, key := range keys {
				bd, err := encodeRecord(key, run)
				if err != nil {
					b.Fatal(err)
				}
				bodies[i] = bd
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.put(keys[i&4095], bodies[i&4095])
			}
			b.StopTimer()
			r.close() // include nothing of the drain; close before the next run
		})
	}
}

func TestRingPickZeroAlloc(t *testing.T) {
	r := buildRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	keys := testKeys(64)
	var buf [1]int
	allocs := testing.AllocsPerRun(1000, func() {
		for _, key := range keys {
			r.successors(key, buf[:1])
		}
	})
	if allocs != 0 {
		t.Fatalf("ring.successors allocates %.1f per 64 owner lookups; the hot path must be allocation-free", allocs)
	}
}
