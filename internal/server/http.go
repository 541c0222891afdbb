package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/consistency"
	"repro/internal/event"
	"repro/internal/eventio"
	"repro/internal/telemetry"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// Handler returns the HTTP/JSON surface: a second encoding of the verbs the
// binary protocol calls, reachable with curl. Each route decodes its
// request, calls one verb, and encodes the result:
//
//	GET    /healthz                     —           liveness + system error state
//	GET    /metrics                     —           Prometheus text: egress counters,
//	                                               connections, GC CPU by class
//	GET    /v1/queries                  info        registry listing
//	POST   /v1/queries                  register    JSON body, below
//	GET    /v1/queries/{id}             info        the binary status request
//	DELETE /v1/queries/{id}            unregister
//	GET    /v1/queries/{id}/results    lookup      accumulated output (?format=text, ?alerts=1)
//	GET    /v1/queries/{id}/stream     subscribe   live NDJSON {"tag": n, "event": {...}} lines
//	POST   /v1/events                  push (+sync) a batch: NDJSON/JSON array, or CSV with
//	                                               Content-Type text/csv (?sync=1 for a
//	                                               durability barrier after the batch)
//	POST   /v1/sync                    sync        drain + fsync, report system error
//	POST   /v1/finish                  finish      flush all queries
//
// Register body:
//
//	{"src": "EVENT ... WHEN ...", "consistency": {"b": 0, "m": -1},
//	 "shards": 4, "no_sharing": false, "bindings": {"user": "u17"}}
//
// where -1 in a consistency bound means unbounded. The text results
// format prints one event per line in the CLI's rendering with CTI
// punctuation elided, so a shell diff against the output of
// `cedr -query ... -events ...` needs no JSON tooling. A malformed id or
// body is 400, an unknown id 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
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

// httpError writes a JSON error body: 404 for an unknown query, code
// otherwise.
func httpError(w http.ResponseWriter, code int, err error) {
	if errors.Is(err, errNoQuery) {
		code = http.StatusNotFound
	}
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

// pathID parses the {id} path segment, answering 400 if it is no number.
func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("server: bad query id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
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

// handleMetrics reads the egress counters every outbox shares, without
// taking any outbox's lock, the engine's history counters, its standing
// queries and chains and, once each chain's shards have drained, its
// matchers' counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	sum := &s.egress
	var t telemetry.Text
	t.Counter("cedr_egress_frames_total", "Frames queued for clients and subscribers.", sum.frames.Load())
	t.Counter("cedr_egress_bytes_total", "Bytes queued for clients and subscribers.", sum.bytes.Load())
	t.Counter("cedr_egress_writes_total", "Batches of queued frames written.", sum.writes.Load())
	t.Counter("cedr_egress_overflows_total", "Consumers failed because their queue reached its frame bound.", sum.overflows.Load())
	t.Gauge("cedr_egress_queued_frames_max", "The most frames one queue has held at once.", sum.peak.Load())
	t.Gauge("cedr_connections", "Open binary-protocol connections.", uint64(conns))
	h := s.sys.HistoryStats()
	t.Counter("cedr_history_items_total", "Data items appended to query output histories.", h.Items)
	t.Counter("cedr_history_sync_points_total", "Sync points appended to query output histories.", h.SyncPoints)
	t.Counter("cedr_history_chunk_bytes_total", "Bytes of output history chunks allocated.", h.ChunkBytes)
	queries, chains := s.sys.Standing()
	t.Gauge("cedr_queries", "Registered queries, less the unregistered.", uint64(queries))
	t.Gauge("cedr_chains", "Execution chains the registered queries run on.", uint64(chains))
	m := s.sys.MatcherStats()
	t.Counter("cedr_matcher_composites_total", "Composite matches the queries' matchers built.", m.Composites)
	t.Counter("cedr_matcher_composite_cache_hits_total", "Composite lookups a matcher's cache answered.", m.CompositeHits)
	t.Gauge("cedr_matcher_undo_records", "Live undo records the running chains' matchers keep for repair.", m.UndoRecords)
	t.Gauge("cedr_matcher_payload_entries", "Payload-table slots the running chains' matchers hold.", m.PayloadEntries)
	t.GCCPU("cedr_gc_cpu_seconds_total")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	t.WriteTo(w)
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
	Src         string `json:"src"`
	Consistency *struct {
		B int64 `json:"b"`
		M int64 `json:"m"`
	} `json:"consistency,omitempty"`
	Shards    int            `json:"shards,omitempty"`
	NoSharing bool           `json:"no_sharing,omitempty"`
	Bindings  map[string]any `json:"bindings,omitempty"`
}

// readRegisterBody decodes a POST /v1/queries body into the registration
// it asks for.
func readRegisterBody(r io.Reader) (string, wal.RegOpts, error) {
	var b registerBody
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(&b); err != nil {
		return "", wal.RegOpts{}, fmt.Errorf("server: register body: %w", err)
	}
	o := wal.RegOpts{Shards: b.Shards, Share: !b.NoSharing}
	if c := b.Consistency; c != nil {
		// -1 is unbounded: JSON has no 2^63-1 literal that survives a
		// float64 round trip.
		bound := func(v int64) temporal.Duration {
			if v < 0 {
				return consistency.Unbounded
			}
			return temporal.Duration(v)
		}
		o.HasSpec, o.Spec = true, consistency.Spec{B: bound(c.B), M: bound(c.M)}
	}
	if len(b.Bindings) > 0 {
		o.Bindings = make(map[string]event.Value, len(b.Bindings))
		for name, raw := range b.Bindings {
			v, err := eventio.JSONValue(raw)
			if err != nil {
				return "", o, fmt.Errorf("server: binding %q: %w", name, err)
			}
			o.Bindings[name] = v
		}
	}
	return b.Src, o, nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	src, o, err := readRegisterBody(r.Body)
	if err == nil {
		var info queryInfo
		if info, err = s.register(src, o); err == nil {
			writeJSON(w, http.StatusCreated, info)
			return
		}
	}
	httpError(w, http.StatusBadRequest, err)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if id, ok := pathID(w, r); ok {
		if info, err := s.info(id); err != nil {
			httpError(w, http.StatusBadRequest, err)
		} else {
			writeJSON(w, http.StatusOK, info)
		}
	}
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if id, ok := pathID(w, r); ok {
		if err := s.unregister(id); err != nil {
			httpError(w, http.StatusBadRequest, err)
		} else {
			writeJSON(w, http.StatusOK, map[string]any{"unregistered": id})
		}
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	ent, err := s.lookup(id)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
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

// handleStream sends live output as NDJSON, history first, through the same
// bounded fail-stop outbox as a binary subscription: a consumer that stops
// reading is cut off, and the subscription ends with the request.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	out := newOutbox(s.queueCap, &s.egress, nil)
	cancel, err := s.subscribe(id, out, ndjsonLine)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-out.done:
			return
		case <-out.wake:
			if err := out.flush(w); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// ndjsonLine encodes one output item as a /stream line.
func ndjsonLine(dst []byte, ev event.Event, tag uint64) ([]byte, error) {
	b, err := eventio.MarshalJSON(ev)
	dst = strconv.AppendUint(append(dst, `{"tag":`...), tag, 10)
	return append(append(append(dst, `,"event":`...), b...), "}\n"...), err
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
		if err := s.push(e); err != nil {
			httpError(w, http.StatusInternalServerError,
				fmt.Errorf("server: push %d/%d failed: %w", i+1, len(evs), err))
			return
		}
	}
	if r.URL.Query().Get("sync") == "1" {
		if err := s.sync(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": len(evs)})
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	if err := s.sync(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"synced": true})
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	if err := s.finish(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"finished": true})
}
