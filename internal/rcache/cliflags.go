package rcache

import (
	"flag"
	"fmt"
)

// CLI bundles the result-cache command-line flags shared by cmd/sweep and
// cmd/cmpsim, so the two drivers wire identical flag names, defaults, and
// combination rules instead of copy-pasting them.
type CLI struct {
	Dir      string // -cache: persistent directory; "" = in-memory only
	Remote   string // -cache-remote: comma-separated cached server URLs; "" = local-only
	Replicas int    // -cache-replicas: extra ring successors each record is written to
	Readonly bool   // -cache-readonly: consult but never write
	GC       bool   // -cache-gc: prune dead schema versions and exit (sweep only)
	MaxBytes int64  // -cache-max-bytes: size budget -cache-gc enforces by LRU (sweep only)
}

// RegisterCLI registers the common cache flags on fs and returns the struct
// their values land in. withGC additionally registers -cache-gc and its
// -cache-max-bytes budget, which only cmd/sweep exposes.
func RegisterCLI(fs *flag.FlagSet, withGC bool) *CLI {
	c := &CLI{}
	fs.StringVar(&c.Dir, "cache", "", "result-cache directory; empty = in-memory dedup only")
	fs.StringVar(&c.Remote, "cache-remote", "", "comma-separated URLs of shared cache servers (cmd/cached); keys are consistent-hashed across them, misses fall through, computed cells write back")
	fs.IntVar(&c.Replicas, "cache-replicas", 0, "write each record to this many extra ring successors (and read through them); needs a -cache-remote fleet larger than the count")
	fs.BoolVar(&c.Readonly, "cache-readonly", false, "consult the result cache but never write entries (local or remote)")
	if withGC {
		fs.BoolVar(&c.GC, "cache-gc", false, "prune dead schema versions under -cache DIR (and enforce -cache-max-bytes), then exit")
		fs.Int64Var(&c.MaxBytes, "cache-max-bytes", 0, "with -cache-gc: evict least-recently-used entries until DIR fits this many bytes (0 = no size budget)")
	}
	return c
}

// Validate rejects contradictory flag combinations. Callers treat a non-nil
// error as a usage error (exit 2).
func (c *CLI) Validate() error {
	if c.GC && c.Dir == "" {
		return fmt.Errorf("-cache-gc requires -cache DIR")
	}
	if c.GC && c.Readonly {
		return fmt.Errorf("-cache-gc deletes dead entries; it contradicts -cache-readonly")
	}
	if c.GC && c.Remote != "" {
		return fmt.Errorf("-cache-gc is local maintenance; it never touches -cache-remote (the server enforces its own -max-bytes)")
	}
	if c.Readonly && c.Dir == "" && c.Remote == "" {
		return fmt.Errorf("-cache-readonly requires -cache DIR or -cache-remote URL")
	}
	if c.Replicas != 0 && c.Remote == "" {
		return fmt.Errorf("-cache-replicas needs a -cache-remote fleet to replicate across")
	}
	if c.Replicas < 0 || c.Replicas > maxReplicas {
		return fmt.Errorf("-cache-replicas must be in [0, %d]", maxReplicas)
	}
	if c.MaxBytes < 0 {
		return fmt.Errorf("-cache-max-bytes must be >= 0")
	}
	if c.MaxBytes > 0 && !c.GC {
		return fmt.Errorf("-cache-max-bytes is a -cache-gc action (a server budget is cached's -max-bytes)")
	}
	return nil
}

// RunGC executes the -cache-gc action — dead schema versions always, the
// LRU size budget when -cache-max-bytes is set — and returns the
// human-readable summary line, including the bytes reclaimed. Only
// meaningful when c.GC is set.
func (c *CLI) RunGC() (string, error) {
	versions, entries, err := GC(c.Dir)
	if err != nil {
		return "", err
	}
	summary := fmt.Sprintf("rcache-gc: removed %d dead schema version(s) holding %d entries; live schema is %s",
		versions, entries, LiveVersion())
	if c.MaxBytes > 0 {
		n, b, err := EnforceBudget(c.Dir, c.MaxBytes, nil)
		if err != nil {
			return "", fmt.Errorf("rcache: lru: %w", err)
		}
		summary += fmt.Sprintf("; lru evicted %d entries reclaiming %d bytes (budget %d)", n, b, c.MaxBytes)
	}
	return summary, nil
}

// Open returns the store the flags describe: disk-backed under -cache DIR
// (memory-only otherwise — in-process dedup is always on; output is
// byte-identical either way), with the -cache-remote tier attached behind
// it when given, as AttachRemote attaches it. With Replicas > 0 every
// computed cell is also written to that many distinct ring successors of its
// owning shard, and reads fall through the same home set before declaring a
// miss, so a lost shard's keys stay warm on its neighbors; a replica count
// the fleet can't honor is an error. Callers must Close the store before
// exit so pending remote write-backs drain.
func (c *CLI) Open() (*Store, error) {
	s := NewMemory()
	if c.Dir != "" {
		var err error
		if s, err = Open(c.Dir, c.Readonly); err != nil {
			return nil, err
		}
	} else if c.Readonly {
		s.readonly = true
	}
	if c.Remote != "" {
		r, err := newRemote(c.Remote, c.Replicas)
		if err != nil {
			return nil, err
		}
		s.remote = r
	}
	return s, nil
}
