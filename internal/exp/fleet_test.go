package exp

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rcache"
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
// same fleet with one shard dead, the fleet with replication} must produce
// identical bytes every time — a fleet state is never allowed to leak into
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

	attach := func(urls string, replicas int) *rcache.Store {
		t.Helper()
		s, err := (&rcache.CLI{Dir: t.TempDir(), Remote: urls, Replicas: replicas}).Open()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Single server: the PR-4 shape, now routed through the one-server fleet.
	_, single := startFleet(t, 1)
	s1 := attach(single, 0)
	Cache = s1
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: single-server output differs from uncached", id)
	}
	s1.Close()

	// Cold 3-shard fleet: computes everything, write-backs spread over the
	// ring.
	servers, list := startFleet(t, 3)
	cold := attach(list, 0)
	Cache = cold
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: cold-fleet output differs from uncached", id)
	}
	cold.Close()
	st := cold.Stats()
	if st.Misses == 0 || st.RemoteStores != st.Misses {
		t.Errorf("cold fleet stats %+v: every computed cell must be written back", st)
	}
	shardsHit := 0
	for _, sh := range st.Shards {
		if sh.Stores > 0 {
			shardsHit++
		}
	}
	if shardsHit < 2 {
		t.Errorf("cold fleet stats %+v: write-backs landed on %d of 3 shards; sharding is not spreading", st, shardsHit)
	}

	// Warm fleet, cold client: all warmth over the wire, nothing simulates.
	warm := attach(list, 0)
	Cache = warm
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: warm-fleet output differs from uncached", id)
	}
	warm.Close()
	if st := warm.Stats(); st.Misses != 0 || st.RemoteErrs != 0 || st.Hits() == 0 {
		t.Errorf("warm fleet stats %+v: want misses=0 hit-rate=100%%", st)
	}

	// Kill one shard: output identical, that shard's segment recomputes, and
	// exactly one shard reads latched. The victim must be a shard that owns
	// at least one of the 8 quick cells — ports are random per run, so a
	// fixed index would own zero keys often enough to flake the latch and
	// recompute assertions below. The cold fill recorded who owns what.
	var dead *httptest.Server
	for _, sh := range st.Shards {
		if sh.Stores == 0 {
			continue
		}
		for _, ts := range servers {
			if ts.URL == sh.URL {
				dead = ts
			}
		}
		break
	}
	if dead == nil {
		t.Fatalf("cold fleet stats %+v: no shard with stores to kill", st)
	}
	dead.Close()
	degraded := attach(list, 0)
	Cache = degraded
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: one-shard-dead output differs from uncached", id)
	}
	degraded.Close()
	st = degraded.Stats()
	if st.RemoteHits == 0 || st.Misses == 0 {
		t.Errorf("degraded fleet stats %+v: want surviving shards warm, dead shard's segment recomputed", st)
	}
	latched := 0
	for _, sh := range st.Shards {
		if sh.Latched {
			latched++
		}
	}
	if latched != 1 {
		t.Errorf("degraded fleet stats %+v: want exactly one latched shard, got %d", st, latched)
	}

	// Replication: a fresh fleet warmed at -cache-replicas 1 keeps serving
	// every key with a shard dead — misses stay 0.
	rservers, rlist := startFleet(t, 3)
	rwarm := attach(rlist, 1)
	Cache = rwarm
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: replicated cold-fleet output differs from uncached", id)
	}
	rwarm.Close()

	rservers[0].Close()
	rcold := attach(rlist, 1)
	Cache = rcold
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: replicated one-shard-dead output differs from uncached", id)
	}
	rcold.Close()
	if st := rcold.Stats(); st.Misses != 0 {
		t.Errorf("replicated degraded stats %+v: replicas=1 must survive one shard loss with misses=0", st)
	}
}
