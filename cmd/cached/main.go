// Command cached serves a result-cache directory over HTTP, so a fleet of
// sweep and cmpsim clients — CI runners, interactive users — share one warm
// store instead of each re-simulating the same cells.
//
// Usage:
//
//	cached -dir /var/cache/repro                      # serve on :8344
//	cached -dir DIR -addr 127.0.0.1:8344              # explicit bind
//	cached -dir DIR -max-bytes 268435456              # 256 MiB LRU budget
//
// Clients point -cache-remote at it — one server, or a comma-separated
// fleet across which the client places keys by rendezvous hashing (see
// internal/rcache's fleet layer; servers never know about each other):
//
//	sweep  -exp all -cache ~/.repro-cache -cache-remote http://host:8344
//	cmpsim -workload spmv -cache-remote http://host:8344
//	sweep  -exp all -cache-remote http://a:8344,http://b:8344,http://c:8344
//
// The HTTP surface (see internal/rcache's Server) is GET/HEAD/PUT on
// /cache/<version>/<key> with ETag = "<key>" and conditional GET via
// If-None-Match, plus two side-band endpoints: GET /metrics (the server's
// counters in Prometheus text exposition format) and GET /healthz
// (liveness: 200 with uptime and the live schema version — what CI waits on
// before starting clients).
// Entries are immutable and content-addressed, so the server needs no
// coherence protocol: it is a dumb byte store whose keys carry all the
// semantics.
//
// The served directory is the same layout `sweep -cache DIR` writes, so an
// existing local cache can be promoted to a shared one by pointing cached
// at it. -max-bytes keeps a long-lived shared store bounded: once over
// budget, least-recently-served entries are evicted (entries with a PUT in
// flight never are). Clients treat eviction like any other miss.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/rcache"
)

func main() {
	var (
		addr     = flag.String("addr", ":8344", "listen address")
		dir      = flag.String("dir", "", "result-cache directory to serve (required; created if missing)")
		maxBytes = flag.Int64("max-bytes", 0, "size budget in bytes; LRU-evict above it (0 = unbounded)")
	)
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "cached: -dir DIR is required")
		os.Exit(2)
	}
	if *maxBytes < 0 {
		fmt.Fprintln(os.Stderr, "cached: -max-bytes must be >= 0")
		os.Exit(2)
	}

	srv, err := rcache.NewServer(*dir, *maxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cached:", err)
		os.Exit(1)
	}

	st := srv.Stats()
	budget := "unbounded"
	if *maxBytes > 0 {
		budget = fmt.Sprintf("%d bytes", *maxBytes)
	}
	log.Printf("cached: serving %s on %s (%d entries, %d bytes, budget %s; live schema %s)",
		*dir, *addr, st.Entries, st.Bytes, budget, rcache.LiveVersion())
	// A long-lived shared server must not let slow or stalled peers pin
	// connections forever: every request is O(one file read), so generous
	// timeouts lose nothing and bound what a slow-loris client can hold.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Fatal(hs.ListenAndServe())
}
