package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro"
	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/eventio"
	"repro/internal/temporal"
)

// Handler returns the HTTP/JSON convenience surface — the same system,
// verbs, and semantics as the binary protocol, reachable with curl:
//
//	GET    /healthz                     liveness + system error state
//	GET    /v1/queries                  registry listing
//	POST   /v1/queries                  register (JSON body, below)
//	GET    /v1/queries/{id}             one query's status
//	DELETE /v1/queries/{id}            unregister
//	GET    /v1/queries/{id}/results    accumulated output (?format=text, ?alerts=1)
//	GET    /v1/queries/{id}/stream     live NDJSON output frames with tags
//	POST   /v1/events                  push a batch: NDJSON/JSON array, or CSV
//	                                   with Content-Type text/csv (?sync=1 for
//	                                   a durability barrier after the batch)
//	POST   /v1/sync                    drain + fsync, report system error
//	POST   /v1/finish                  flush all queries
//
// Register body:
//
//	{"src": "EVENT ... WHEN ...", "consistency": {"b": 0, "m": -1},
//	 "shards": 4, "no_sharing": false, "bindings": {"user": "u17"}}
//
// where -1 in a consistency bound means unbounded. The text results
// format prints one event per line in the CLI's rendering with CTI
// punctuation elided, so a shell diff against the output of
// `cedr -query ... -events ...` needs no JSON tooling.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/queries", s.handleList)
	mux.HandleFunc("POST /v1/queries", s.handleRegister)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleUnregister)
	mux.HandleFunc("GET /v1/queries/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/queries/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/events", s.handleEvents)
	mux.HandleFunc("POST /v1/sync", s.handleSync)
	mux.HandleFunc("POST /v1/finish", s.handleFinish)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// pathQuery resolves the {id} path segment to a registry entry.
func (s *Server) pathQuery(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("server: bad query id %q", r.PathValue("id")))
		return nil, false
	}
	ent, err := s.lookup(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return nil, false
	}
	return ent, true
}

// queryInfo is the JSON shape of one registry entry.
type queryInfo struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Shards  int    `json:"shards"`
	Shared  bool   `json:"shared"`
	Results int    `json:"results"`
	Err     string `json:"err,omitempty"`
}

func infoOf(e *entry) queryInfo {
	info := queryInfo{
		ID:      e.id,
		Name:    e.q.Name(),
		Shards:  e.q.Shards(),
		Shared:  e.q.Shared(),
		Results: e.q.Len(),
	}
	if err := e.q.Err(); err != nil {
		info.Err = err.Error()
	}
	return info
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.entries)
	s.mu.Unlock()
	body := map[string]any{"ok": true, "queries": n}
	if err := s.sys.Err(); err != nil {
		body["ok"] = false
		body["error"] = err.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := append([]*entry(nil), s.entries...)
	s.mu.Unlock()
	infos := make([]queryInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, infoOf(e))
	}
	writeJSON(w, http.StatusOK, infos)
}

// registerBody is the POST /v1/queries request shape.
type registerBody struct {
	Src         string          `json:"src"`
	Consistency *consistencyRef `json:"consistency,omitempty"`
	Shards      int             `json:"shards,omitempty"`
	NoSharing   bool            `json:"no_sharing,omitempty"`
	Bindings    map[string]any  `json:"bindings,omitempty"`
}

// consistencyRef is a (B, M) pair where -1 means unbounded — JSON has
// no 2^63-1 literal that survives float64 round-trips.
type consistencyRef struct {
	B int64 `json:"b"`
	M int64 `json:"m"`
}

func (cr *consistencyRef) spec() cedr.Spec {
	bound := func(v int64) temporal.Duration {
		if v < 0 {
			return consistency.Unbounded
		}
		return temporal.Duration(v)
	}
	return cedr.Spec{B: bound(cr.B), M: bound(cr.M)}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body registerBody
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("server: register body: %w", err))
		return
	}
	var ro regOpts
	if body.Consistency != nil {
		ro.hasSpec = true
		ro.spec = body.Consistency.spec()
	}
	ro.shards = body.Shards
	ro.noShare = body.NoSharing
	if len(body.Bindings) > 0 {
		ro.bindings = event.Payload{}
		for name, raw := range body.Bindings {
			v, err := bindingValue(raw)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("server: binding %q: %w", name, err))
				return
			}
			ro.bindings[name] = v
		}
	}
	ent, err := s.register(body.Src, ro)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(ent))
}

// bindingValue maps a decoded JSON value onto the event value domains,
// preserving int64 for integral numbers (json.Number via UseNumber).
func bindingValue(raw any) (event.Value, error) {
	switch v := raw.(type) {
	case string:
		return v, nil
	case bool:
		return v, nil
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return i, nil
		}
		f, err := v.Float64()
		if err != nil {
			return nil, err
		}
		return f, nil
	default:
		return nil, fmt.Errorf("unsupported binding type %T", raw)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if ent, ok := s.pathQuery(w, r); ok {
		writeJSON(w, http.StatusOK, infoOf(ent))
	}
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.pathQuery(w, r)
	if !ok {
		return
	}
	ent.q.Unregister()
	writeJSON(w, http.StatusOK, map[string]any{"unregistered": ent.id})
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.pathQuery(w, r)
	if !ok {
		return
	}
	var evs []event.Event
	if r.URL.Query().Get("alerts") == "1" {
		evs = ent.q.Alerts()
	} else {
		evs = ent.q.Results()
	}
	if r.URL.Query().Get("format") == "text" {
		// The CLI's rendering: one event per line, CTI punctuation
		// elided (the JSON format below keeps it), so a shell diff
		// against a batch `cedr` run compares clean.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, e := range evs {
			if e.IsCTI() {
				continue
			}
			fmt.Fprintf(w, "%s\n", e)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// One event per array element, using the canonical event JSON.
	w.Write([]byte("["))
	for i, e := range evs {
		if i > 0 {
			w.Write([]byte(",\n "))
		}
		b, err := eventio.MarshalJSON(e)
		if err != nil {
			b = []byte(`{"error":` + strconv.Quote(err.Error()) + `}`)
		}
		w.Write(b)
	}
	w.Write([]byte("]\n"))
}

// handleStream sends live output as NDJSON: {"tag": n, "event": {...}}
// per line, history first, then new output as it is delivered. The same
// bounded-queue fail-stop as the binary protocol applies: a consumer
// that stops reading is disconnected.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.pathQuery(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	type tagged struct {
		ev  event.Event
		tag uint64
	}
	queue := make(chan tagged, s.queueCap)
	var dead atomic.Bool
	ent.q.SubscribeTagged(true, func(ev event.Event, tag uint64) {
		if dead.Load() {
			return
		}
		select {
		case queue <- tagged{ev, tag}:
		default:
			dead.Store(true) // overflow: fail-stop this stream
		}
	})
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			dead.Store(true)
			return
		case item := <-queue:
			b, err := eventio.MarshalJSON(item.ev)
			if err != nil {
				dead.Store(true)
				return
			}
			if _, err := fmt.Fprintf(w, `{"tag":%d,"event":%s}`+"\n", item.tag, b); err != nil {
				dead.Store(true)
				return
			}
			if canFlush && len(queue) == 0 {
				fl.Flush()
			}
		}
	}
}

// handleEvents pushes a batch: Content-Type text/csv selects the CLI's
// CSV line format, anything else the canonical event JSON (NDJSON or a
// top-level array). The batch is applied in order; the response reports
// how many events were accepted, and a durability failure mid-batch
// stops the batch (fail-stop) with a 500 naming the failure.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	name := "http"
	var (
		evs []event.Event
		err error
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		evs, err = eventio.ReadCSV(r.Body, name)
	} else {
		evs, err = eventio.ReadJSONStream(r.Body, name)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	for i, e := range evs {
		s.sys.Push(e)
		if serr := s.sys.Err(); serr != nil {
			httpError(w, http.StatusInternalServerError,
				fmt.Errorf("server: push %d/%d failed: %w", i+1, len(evs), serr))
			return
		}
	}
	if r.URL.Query().Get("sync") == "1" {
		s.sys.Drain()
		if serr := s.sys.Sync(); serr != nil {
			httpError(w, http.StatusInternalServerError, serr)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": len(evs)})
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	s.sys.Drain()
	if err := s.sys.Sync(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if err := s.sys.Err(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"synced": true})
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	s.sys.Finish()
	if err := s.sys.Err(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"finished": true})
}
