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

// TestFleetMatchesSingle is the sharded-tier byte-identity pin: one
// experiment rendered against {no remote, 1 server, a 3-server fleet, the
// same fleet with one shard dead} must produce identical bytes every time — a fleet state is never allowed to leak into
// output, only into hit rates. It also pins the warmth contract: a cold
// client against the warm fleet simulates nothing (misses=0, hit-rate 100%).
func TestFleetMatchesSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	defer func(old *rcache.Store) { Cache = old }(Cache)

	const id = "fig1-misses"
	Cache = nil
	want := renderAll(t, id)

	attach := func(urls string) *rcache.Store {
		t.Helper()
		s, err := (&rcache.CLI{Dir: t.TempDir(), Remote: urls}).Open()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Single server: the PR-4 shape, now routed through the one-server fleet.
	_, single := startFleet(t, 1)
	s1 := attach(single)
	Cache = s1
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: single-server output differs from uncached", id)
	}
	s1.Close()

	// Cold 3-shard fleet: computes everything, write-backs spread over the
	// shards.
	servers, list := startFleet(t, 3)
	cold := attach(list)
	Cache = cold
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: cold-fleet output differs from uncached", id)
	}
	cold.Close()
	st := cold.Stats()
	if st.Misses == 0 || st.RemoteStores != st.Misses {
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
	warm := attach(list)
	Cache = warm
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: warm-fleet output differs from uncached", id)
	}
	warm.Close()
	if st := warm.Stats(); st.Misses != 0 || st.RemoteErrs != 0 || st.Hits() == 0 {
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
	degraded := attach(list)
	Cache = degraded
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: one-shard-dead output differs from uncached", id)
	}
	degraded.Close()
	st = degraded.Stats()
	if st.RemoteHits == 0 || st.Misses == 0 {
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
