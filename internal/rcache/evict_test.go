package rcache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// seedEntries fabricates n entries of size bytes each under dir's live
// version directory, with strictly increasing "atimes" (entry i is older
// than entry i+1), and returns their keys in age order (oldest first).
func seedEntries(t *testing.T, dir string, n, size int) []Key {
	t.Helper()
	vdir := filepath.Join(dir, LiveVersion())
	if err := os.MkdirAll(vdir, 0o777); err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{byte(i), byte(i >> 8)}
		p := filepath.Join(vdir, keys[i].String()+".json")
		if err := os.WriteFile(p, []byte(strings.Repeat("x", size)), 0o644); err != nil {
			t.Fatal(err)
		}
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, at, at); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func liveEntries(t *testing.T, dir string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	files, err := os.ReadDir(filepath.Join(dir, LiveVersion()))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		out[strings.TrimSuffix(f.Name(), ".json")] = true
	}
	return out
}

// TestEnforceBudgetLRU: the budget must be respected and victims must be
// chosen strictly oldest-first, so the most recently used entries survive.
func TestEnforceBudgetLRU(t *testing.T) {
	dir := t.TempDir()
	keys := seedEntries(t, dir, 10, 100) // 1000 bytes total

	entries, bytes, err := EnforceBudget(dir, 350, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 10 entries x 100 B against a 350 B budget: 7 oldest evicted, 3 newest kept.
	if entries != 7 || bytes != 700 {
		t.Fatalf("reclaimed %d entries / %d bytes, want 7 / 700", entries, bytes)
	}
	live := liveEntries(t, dir)
	for i, k := range keys {
		if want := i >= 7; live[k.String()] != want {
			t.Errorf("entry %d (age rank %d): survived=%v, want %v", i, i, live[k.String()], want)
		}
	}

	// Already under budget: a second pass is a no-op.
	if n, b, err := EnforceBudget(dir, 350, nil); err != nil || n != 0 || b != 0 {
		t.Fatalf("second pass reclaimed %d / %d (err %v), want nothing", n, b, err)
	}
	// No budget: never touches anything.
	if n, b, err := EnforceBudget(dir, 0, nil); err != nil || n != 0 || b != 0 {
		t.Fatalf("zero budget reclaimed %d / %d (err %v), want nothing", n, b, err)
	}
}

// TestEnforceBudgetProtected: in-flight entries are never evicted, even when
// the budget cannot be met without them — the LRU must skip to the next
// victim rather than fail or remove a protected file.
func TestEnforceBudgetProtected(t *testing.T) {
	dir := t.TempDir()
	keys := seedEntries(t, dir, 4, 100)
	oldest := LiveVersion() + "/" + keys[0].String()

	entries, bytes, err := EnforceBudget(dir, 100, func(rel string) bool { return rel == oldest })
	if err != nil {
		t.Fatal(err)
	}
	// Budget 100 with 400 on disk and the oldest 100 protected: the three
	// younger entries go, the protected one stays, and the directory settles
	// at 100 bytes — over or at budget only because of the protected entry.
	if entries != 3 || bytes != 300 {
		t.Fatalf("reclaimed %d entries / %d bytes, want 3 / 300", entries, bytes)
	}
	live := liveEntries(t, dir)
	if !live[keys[0].String()] {
		t.Fatal("protected (in-flight) entry was evicted")
	}
	if len(live) != 1 {
		t.Fatalf("%d entries survived, want only the protected one", len(live))
	}
}

// TestEnforceBudgetIgnoresForeignFiles: temp files, non-entry files, and
// non-schema directories are neither counted against the budget nor removed.
func TestEnforceBudgetIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	seedEntries(t, dir, 2, 100)
	vdir := filepath.Join(dir, LiveVersion())
	os.WriteFile(filepath.Join(vdir, "tmp-abc"), []byte(strings.Repeat("t", 500)), 0o666)
	os.WriteFile(filepath.Join(dir, "README"), []byte(strings.Repeat("r", 500)), 0o666)
	foreign := filepath.Join(dir, "v8") // not a schema dir name
	os.MkdirAll(foreign, 0o777)
	os.WriteFile(filepath.Join(foreign, "precious.json"), []byte(strings.Repeat("p", 500)), 0o666)

	// 200 entry bytes against a 200 budget: nothing to do, despite 1500
	// foreign bytes sitting nearby.
	if n, b, err := EnforceBudget(dir, 200, nil); err != nil || n != 0 || b != 0 {
		t.Fatalf("reclaimed %d / %d (err %v), want nothing", n, b, err)
	}
	for _, p := range []string{
		filepath.Join(vdir, "tmp-abc"),
		filepath.Join(dir, "README"),
		filepath.Join(foreign, "precious.json"),
	} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("foreign file %s was removed", p)
		}
	}
}

// TestEnforceBudgetMissingDir: a directory that does not exist is a no-op,
// matching GC's contract.
func TestEnforceBudgetMissingDir(t *testing.T) {
	if n, b, err := EnforceBudget(filepath.Join(t.TempDir(), "nope"), 1, nil); err != nil || n != 0 || b != 0 {
		t.Fatalf("EnforceBudget(missing) = %d, %d, %v", n, b, err)
	}
}

// TestDiskHitRefreshesRecency: a disk hit must update the entry's access
// time so the LRU evicts cold entries before hot ones — the store maintains
// its own atime precisely because kernel atime is unreliable (noatime).
func TestDiskHitRefreshesRecency(t *testing.T) {
	dir := t.TempDir()
	keys := seedEntries(t, dir, 2, 0) // content rewritten below via real stores
	// Replace the fabricated bodies with real records so diskGet succeeds.
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !s.diskPut(k.String(), testRun()) {
			t.Fatal("diskPut failed")
		}
		at := time.Now().Add(-time.Duration(2-i) * time.Hour)
		if err := os.Chtimes(s.path(k.String()), at, at); err != nil {
			t.Fatal(err)
		}
	}

	// Read the older entry through a fresh store (empty memory tier): the
	// hit must refresh its recency past the unread entry's.
	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Do(keys[0], func() (metrics.Run, error) {
		t.Fatal("recomputed a persisted cell")
		return metrics.Run{}, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Budget for one entry: the unread keys[1] must be the victim even
	// though it was written as the younger entry.
	size := entrySize(t, s.path(keys[0].String()))
	if n, _, err := EnforceBudget(dir, size, nil); err != nil || n != 1 {
		t.Fatalf("reclaimed %d entries (err %v), want 1", n, err)
	}
	live := liveEntries(t, dir)
	if !live[keys[0].String()] || live[keys[1].String()] {
		t.Fatalf("LRU evicted the just-read entry: live=%v", live)
	}
}

func entrySize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}
