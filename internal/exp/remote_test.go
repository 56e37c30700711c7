package exp

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rcache"
	"repro/internal/testutil"
)

// startFleet starts n cached servers and returns the comma-separated URL
// list plus a slice of the test servers (so callers can kill one).
func startFleet(t *testing.T, n int) ([]*httptest.Server, string) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		srv, err := rcache.NewServer(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		servers[i], urls[i] = ts, ts.URL
	}
	return servers, strings.Join(urls, ",")
}

// remoteClient attaches a client with an empty local store to urls,
// renders id through it, compares the bytes with want, and drains its
// write-backs. It sets the package Cache; callers restore it.
func remoteClient(t *testing.T, id, want, label, urls string) *rcache.Store {
	t.Helper()
	s, err := (&rcache.CLI{Dir: t.TempDir(), Remote: urls}).Open()
	if err != nil {
		t.Fatal(err)
	}
	Cache = s
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: %s output differs from the reference:\n--- reference ---\n%s\n--- got ---\n%s", id, label, want, got)
	}
	s.Close()
	return s
}

// TestRemoteTierMatchesLocal is the shared-cache-e2e CI job run in-process:
// experiment output must be byte-identical to the local quick-suite
// reference with a cold client filling one shared server, with a second
// cold client warmed entirely over the wire (misses=0), and with a dead
// remote (degrades to local-only, never fails the sweep). A remote state
// is never allowed to leak into output, only into hit rates.
func TestRemoteTierMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const id = "fig1-misses"
	want := reference(t, id).out
	defer func(old *rcache.Store) { Cache = old }(Cache)

	// Client A: cold local store, cold server. Computes everything; the
	// asynchronous write-back (drained by Close) fills the server.
	_, single := startFleet(t, 1)
	if st := remoteClient(t, id, want, "cold-client", single).Stats(); st.Misses == 0 || st.RemoteStores != st.Misses {
		t.Errorf("client A stats %+v: every computed cell must be written back", st)
	}

	// Client B: a different machine — empty local store, warm server. All
	// warmth arrives over the wire; nothing simulates.
	if st := remoteClient(t, id, want, "warm-over-wire", single).Stats(); st.Misses != 0 || st.RemoteHits == 0 || st.RemoteErrs != 0 {
		t.Errorf("client B stats %+v: want pure remote hits, no simulation", st)
	}

	// Client C: the server is gone. The sweep must complete with identical
	// bytes on local computes alone, with the failure latched and counted.
	if st := remoteClient(t, id, want, "dead-remote", "http://127.0.0.1:1").Stats(); st.Misses == 0 || st.RemoteErrs == 0 {
		t.Errorf("client C stats %+v: want local computes with a latched remote error", st)
	}
}

// TestFleetMatchesSingle is the sharded-tier byte-identity pin: one
// experiment rendered against a 3-server fleet cold, warm, and with one
// shard dead must match the local quick-suite reference, which
// TestRemoteTierMatchesLocal also matches through a single server. A fleet
// state is never allowed to leak into output, only into hit rates. It also
// pins the warmth contract: a cold client against the warm fleet simulates
// nothing (misses=0, hit-rate 100%).
func TestFleetMatchesSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const id = "fig1-misses"
	want := reference(t, id).out
	defer func(old *rcache.Store) { Cache = old }(Cache)

	// Cold 3-shard fleet: computes everything, write-backs spread over the
	// shards.
	servers, list := startFleet(t, 3)
	cold := remoteClient(t, id, want, "cold-fleet", list)
	if st := cold.Stats(); st.Misses == 0 || st.RemoteStores != st.Misses {
		t.Errorf("cold fleet stats %+v: every computed cell must be written back", st)
	}
	stores := testutil.Series(t, cold.RegisterMetrics, "rcache_shard_stores_total")
	shardsHit := 0
	for _, n := range stores {
		if n > 0 {
			shardsHit++
		}
	}
	if shardsHit < 2 {
		t.Errorf("cold fleet shard stores %v: write-backs landed on %d of 3 shards; sharding is not spreading", stores, shardsHit)
	}

	// Warm fleet, cold client: all warmth over the wire, nothing simulates.
	if st := remoteClient(t, id, want, "warm-fleet", list).Stats(); st.Misses != 0 || st.RemoteErrs != 0 || st.Hits() == 0 {
		t.Errorf("warm fleet stats %+v: want misses=0 hit-rate=100%%", st)
	}

	// Kill one shard: output identical, that shard's keys recompute, and
	// exactly one shard reads latched. The victim must be a shard that owns
	// at least one of the 8 quick cells — ports are random per run, so a
	// fixed index would own zero keys often enough to flake the latch and
	// recompute assertions below. The cold fill recorded who owns what.
	var dead *httptest.Server
	for _, ts := range servers {
		if stores[fmt.Sprintf("shard=%q", ts.URL)] > 0 {
			dead = ts
			break
		}
	}
	if dead == nil {
		t.Fatalf("cold fleet shard stores %v: no shard with stores to kill", stores)
	}
	dead.Close()
	degraded := remoteClient(t, id, want, "one-shard-dead", list)
	if st := degraded.Stats(); st.RemoteHits == 0 || st.Misses == 0 {
		t.Errorf("degraded fleet stats %+v: want surviving shards warm, dead shard's keys recomputed", st)
	}
	latched := testutil.Series(t, degraded.RegisterMetrics, "rcache_shard_latched")
	sum := 0.0
	for _, v := range latched {
		sum += v
	}
	if len(latched) != 3 || sum != 1 || latched[fmt.Sprintf("shard=%q", dead.URL)] != 1 {
		t.Errorf("degraded fleet rcache_shard_latched %v: want exactly the killed shard %s latched", latched, dead.URL)
	}
}
