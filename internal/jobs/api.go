package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/rcache"
)

// maxBodyBytes bounds a submitted definition. The largest legitimate Def —
// 4096-entry axis lists — is well under this; anything bigger is a client
// bug or abuse, rejected before JSON decoding allocates for it.
const maxBodyBytes = 1 << 20

// API is the HTTP surface of a Manager — the handler cmd/sweepd serves and
// the httptest suite drives. Routes:
//
//	POST   /v1/jobs             submit a grid.Def (JSON body) → 202 + Status
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        poll one job's Status
//	GET    /v1/jobs/{id}/result rendered table (text/plain), or CSV with
//	                            ?format=csv; 409 until done
//	GET    /v1/jobs/{id}/events SSE progress stream until terminal
//	GET    /v1/jobs/{id}/trace  per-cell spans as JSONL (sweep -trace-out's
//	                            schema), whatever has completed so far
//	DELETE /v1/jobs/{id}        cancel (idempotent) → Status
//	GET    /healthz             liveness + drain state; never walks state
//	GET    /metrics             the unified registry, Prometheus text format
//
// Submission rejections carry the admission reason as plain text: 400
// invalid definition (an oversized body included), 413 over the per-job
// cell quota, 429 queue full (with Retry-After), 503 draining.
type API struct {
	m   *Manager
	reg *obs.Registry
	mux *http.ServeMux
}

// NewAPI wires a Manager's HTTP surface. reg backs /metrics and may be nil
// (the endpoint then answers 404); cmd/sweepd passes the registry holding
// the manager's and the whole execution stack's families.
func NewAPI(m *Manager, reg *obs.Registry) *API {
	a := &API{m: m, reg: reg, mux: http.NewServeMux()}
	a.mux.HandleFunc("POST /v1/jobs", a.submit)
	a.mux.HandleFunc("GET /v1/jobs", a.list)
	a.mux.HandleFunc("GET /v1/jobs/{id}", a.status)
	a.mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	a.mux.HandleFunc("GET /v1/jobs/{id}/result", a.result)
	a.mux.HandleFunc("GET /v1/jobs/{id}/events", a.events)
	a.mux.HandleFunc("GET /v1/jobs/{id}/trace", a.trace)
	a.mux.HandleFunc("GET /healthz", a.healthz)
	a.mux.HandleFunc("GET /metrics", a.metrics)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		// Rejected before Submit sees it, so counted here, with the
		// definitions Submit finds invalid.
		a.m.rejectedInvalid.Add(1)
		http.Error(w, "request body unreadable or over "+strconv.Itoa(maxBodyBytes)+" bytes", http.StatusBadRequest)
		return
	}
	j, err := a.m.Submit(body)
	if err != nil {
		var se *SubmitError
		if errors.As(err, &se) {
			if se.HTTPStatus == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
			}
			http.Error(w, se.Reason, se.HTTPStatus)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, a.m.Status(j))
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	jobs := a.m.List()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = a.m.Status(j)
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves {id}, answering 404 itself when unknown.
func (a *API) lookup(w http.ResponseWriter, r *http.Request) *Job {
	j := a.m.Get(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown job id", http.StatusNotFound)
	}
	return j
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	j := a.lookup(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, a.m.Status(j))
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := a.m.Cancel(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job id", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, a.m.Status(j))
}

// result serves the rendered output once the job is done: the aligned table
// by default, CSV with `?format=csv`. Both bodies are byte-identical to
// `sweep -grid` / `sweep -grid -csv` on the same definition. A job that is
// not (yet) done answers 409 with the Status JSON, so pollers can
// distinguish "not finished" from "failed" without a second request.
func (a *API) result(w http.ResponseWriter, r *http.Request) {
	j := a.lookup(w, r)
	if j == nil {
		return
	}
	table, csv, ok := j.Result()
	if !ok {
		writeJSON(w, http.StatusConflict, a.m.Status(j))
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		io.WriteString(w, csv)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, table)
}

// events streams the job's progress as Server-Sent Events: a `status` event
// with the current snapshot on connect, a `progress` event per observed
// state or progress move, and a final `end` event with the terminal
// snapshot, after which the stream closes. Moves that land while a slow
// consumer is still being written to coalesce into one progress event with
// the latest snapshot (nothing is buffered); the end event is always
// delivered, also to a client that connects after the job ended. Data
// payloads are the Event JSON.
func (a *API) events(w http.ResponseWriter, r *http.Request) {
	j := a.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	send := func(event string, ev Event) {
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}

	ev, changed := j.watch()
	send("status", ev)
	for !ev.State.Terminal() {
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
		if ev, changed = j.watch(); !ev.State.Terminal() {
			send("progress", ev)
		}
	}
	send("end", ev)
}

// trace streams the job's per-cell spans as JSONL — the same SpanRecord
// schema `sweep -trace-out` writes — covering whatever cells have finished
// at the time of the request.
func (a *API) trace(w http.ResponseWriter, r *http.Request) {
	j := a.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	j.Tracer().WriteJSONL(w)
}

// Health is the /healthz response. Status is "ok" while accepting jobs and
// "draining" once graceful shutdown has begun (the process is still alive,
// finishing its running job; submissions get 503).
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	SchemaVersion string  `json:"schema_version"`
	QueueDepth    int     `json:"queue_depth"`
	Running       int     `json:"running"`
}

var apiStart = obs.Now()

// healthz answers immediately from in-memory state — CI readiness loops
// poll it before submitting, so it must not block on the executor.
func (a *API) healthz(w http.ResponseWriter, r *http.Request) {
	st := a.m.Stats()
	status := "ok"
	if st.Draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, Health{
		Status:        status,
		UptimeSeconds: obs.Since(apiStart).Seconds(),
		SchemaVersion: rcache.LiveVersion(),
		QueueDepth:    st.QueueDepth,
		Running:       st.Running,
	})
}

func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	if a.reg == nil {
		http.Error(w, "metrics registry not configured", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	a.reg.WriteText(w)
}
