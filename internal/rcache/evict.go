package rcache

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Eviction: once the store is shared (served by cmd/cached, or a directory
// many users sweep into), it grows without bound unless someone forgets old
// entries. EnforceBudget is that someone: a size-budgeted LRU over entry
// access time.
//
// "Access time" is maintained by this package, not the filesystem: both the
// disk tier (diskGet) and the HTTP server (GET) touch an entry's
// timestamps on every hit, because relying on kernel atime would silently
// starve the policy on the noatime/relatime mounts most Linux systems use.
// An entry's ModTime is therefore "last written or last served", which is
// exactly the recency LRU wants.

// EnforceBudget removes least-recently-used entries under dir (across every
// schema directory — dead versions age out like anything else, though GC
// removes them wholesale) until the total entry bytes fit maxBytes.
// Protected entries — identified by "version/key", the server passes its
// in-flight PUTs — are never removed, even if the budget cannot be met
// without them. Temp files and foreign files are ignored (GC owns temp
// cleanup). Returns the entries and bytes reclaimed.
//
// Concurrent lookups are safe: a reader that has already opened a file keeps
// reading it after the unlink, and a reader that loses the race sees a plain
// miss and recomputes — the same degradation every other cache failure mode
// maps to.
func EnforceBudget(dir string, maxBytes int64, protected func(rel string) bool) (entries, bytes int64, err error) {
	if maxBytes <= 0 {
		return 0, 0, nil
	}
	type entry struct {
		path, rel string
		size      int64
		atime     time.Time
	}
	var ents []entry
	var total int64
	versions, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	for _, v := range versions {
		if !v.IsDir() || !isSchemaDirName(v.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, v.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, "tmp-") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // raced with a concurrent eviction/GC
			}
			total += info.Size()
			ents = append(ents, entry{
				path:  filepath.Join(dir, v.Name(), name),
				rel:   v.Name() + "/" + strings.TrimSuffix(name, ".json"),
				size:  info.Size(),
				atime: info.ModTime(),
			})
		}
	}
	if total <= maxBytes {
		return 0, 0, nil
	}
	// Oldest first; ties (same timestamp granularity) break on the path so
	// concurrent enforcers converge on the same victims.
	sort.Slice(ents, func(i, j int) bool {
		if !ents[i].atime.Equal(ents[j].atime) {
			return ents[i].atime.Before(ents[j].atime)
		}
		return ents[i].rel < ents[j].rel
	})
	for _, e := range ents {
		if total <= maxBytes {
			break
		}
		if protected != nil && protected(e.rel) {
			continue
		}
		if os.Remove(e.path) != nil {
			continue // already gone (concurrent enforcer) or unwritable
		}
		total -= e.size
		entries++
		bytes += e.size
	}
	return entries, bytes, nil
}
