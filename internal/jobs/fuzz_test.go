package jobs

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
)

// FuzzSubmit drives POST /v1/jobs end to end with an arbitrary body, three
// times over, against a fresh manager whose executor is held by the
// beforeRun seam and cancels every job it releases, so no cell ever
// simulates. Whatever arrives, the handler must not panic or answer 5xx; it
// answers 202 only for a body that grid.ParseDef and Def.Resolve accept and
// whose cells fit the quota, and at most twice (one job running, one
// queued); and every response is counted exactly once, under the reason its
// status names.
func FuzzSubmit(f *testing.F) {
	const maxCells = 4
	f.Add([]byte(tinyDef))
	f.Add([]byte(smallDef)) // 8 cells: over the quota
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"workload":["mergesort"],"cores":[1],"wrokload":["x"]}`))
	f.Add([]byte(`{"workload":["nope"],"cores":[1]}`))
	f.Add([]byte(`{"workload":["mergesort"],"cores":[999]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		want := http.StatusAccepted
		if len(body) > maxBodyBytes {
			want = http.StatusBadRequest
		} else if def, err := grid.ParseDef(body); err != nil {
			want = http.StatusBadRequest
		} else if g, err := def.Resolve(exp.Seed); err != nil {
			want = http.StatusBadRequest
		} else if len(g.Workloads)*len(g.Configs)*len(g.Scheds) > maxCells {
			want = http.StatusRequestEntityTooLarge
		}

		m := New(Config{Queue: 1, MaxCells: maxCells})
		gate := make(chan struct{})
		m.beforeRun = func(j *Job) {
			<-gate
			m.Cancel(j.ID()) // the grid then stops before its first cell
		}
		api := NewAPI(m, nil)
		codes := map[int]int64{}
		for i := 0; i < 3; i++ {
			code := postJob(t, api, string(body)).Code
			codes[code]++
			if code >= 500 {
				t.Fatalf("submission %d of %q: status %d", i+1, body, code)
			}
			switch {
			case want != http.StatusAccepted:
				if code != want {
					t.Fatalf("submission %d of %q: status %d, want %d", i+1, body, code, want)
				}
			case i == 0 && code != http.StatusAccepted,
				code != http.StatusAccepted && code != http.StatusTooManyRequests:
				t.Fatalf("submission %d of valid %q: status %d", i+1, body, code)
			}
		}
		// A held executor admits one running job and one queued one. Which
		// later submission gets the 429 depends on whether the executor has
		// dequeued the first job yet.
		if codes[http.StatusAccepted] > 2 {
			t.Fatalf("valid %q admitted %d times past a held executor and a one-slot queue", body, codes[http.StatusAccepted])
		}
		st := m.Stats()
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}

		if st.Submitted != codes[http.StatusAccepted] ||
			st.RejectedInvalid != codes[http.StatusBadRequest] ||
			st.RejectedQuota != codes[http.StatusRequestEntityTooLarge] ||
			st.RejectedFull != codes[http.StatusTooManyRequests] ||
			st.RejectedDraining != 0 {
			t.Fatalf("%q: statuses %v counted as %+v", body, codes, st)
		}
		if st := m.Stats(); st.CellsDone != 0 {
			t.Fatalf("%q: %d cells simulated behind a held executor", body, st.CellsDone)
		}
	})
}
