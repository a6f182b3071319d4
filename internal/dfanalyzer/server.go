package dfanalyzer

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/obs"
)

// TermHeader carries the writer's replication term on mutating requests.
// A server whose store has a different current term rejects the write
// with 409 Conflict, fencing deposed primaries and stale translators (see
// replication.go). Absent or zero means an unfenced legacy writer.
const TermHeader = "X-Provlight-Term"

// Server exposes the store over the original tool's HTTP 1.1
// request/response interface (uWSGI-style, Fig. 5 of the paper).
type Server struct {
	store *Store
	http  *http.Server
	lis   net.Listener

	// ProcessingDelay adds artificial per-request server work, used by
	// integration tests that emulate the slower Python/uWSGI backend.
	ProcessingDelay time.Duration

	// Ready reports a read replica's traffic readiness from its
	// replication stream (see replica.ReplicaHealth.Ready); nil error is
	// ready. /readyz consults it only while the store is a replica: a
	// standalone or primary store that serves is always ready, and a
	// replica without Ready is not (no stream attached). Set before
	// Start.
	Ready func() error

	// Metrics, when set before Start, mounts GET /metrics on the API
	// listener and registers a scrape-time collector exporting the store's
	// catalog sizes, role, term and WAL health. The replication layer
	// exports its own series into the same registry.
	Metrics *obs.Registry

	// EnablePProf mounts net/http/pprof under /debug/pprof/ (opt-in; set
	// before Start).
	EnablePProf bool

	requests atomic.Uint64
}

// NewServer creates a server around the given store (a fresh one if nil).
func NewServer(store *Store) *Server {
	if store == nil {
		store = NewStore()
	}
	return &Server{store: store}
}

// Store returns the backing store.
func (s *Server) Store() *Store { return s.store }

// Requests returns the number of HTTP requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Close.
func (s *Server) Start(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dfanalyzer: listen %s: %w", addr, err)
	}
	s.lis = lis
	mux := http.NewServeMux()
	mux.HandleFunc("/dataflow", s.handleDataflow)
	mux.HandleFunc("/dataflow/", s.handleDataflowGet)
	mux.HandleFunc("/task", s.handleTask)
	mux.HandleFunc("/tasks", s.handleTasks)
	mux.HandleFunc("/frames", s.handleFrames)
	mux.HandleFunc("/query", s.handleQuery)
	if s.Metrics != nil {
		s.registerMetrics(s.Metrics)
	}
	obs.Attach(mux, obs.MuxOptions{Registry: s.Metrics, Ready: s.ready, PProf: s.EnablePProf})
	s.http = &http.Server{Handler: s.count(mux)}
	go s.http.Serve(lis)
	return nil
}

// registerMetrics installs the server's scrape-time collector: store
// catalog sizes, role, term and WAL health.
func (s *Server) registerMetrics(r *obs.Registry) {
	r.Collect(func(e *obs.Emitter) {
		st := s.store.Stats()
		e.Counter("provlight_store_http_requests_total", "API requests served.", float64(s.requests.Load()))
		e.Gauge("provlight_store_dataflows", "Dataflows in the catalog.", float64(st.Dataflows))
		e.Gauge("provlight_store_tasks", "Tasks in the catalog.", float64(st.Tasks))
		e.Gauge("provlight_store_term", "Current replication term.", float64(st.Term))
		primary := 0.0
		if st.Role == RolePrimary.String() || st.Role == RoleStandalone.String() {
			primary = 1
		}
		e.Gauge("provlight_store_writable", "1 when this store accepts writes (primary or standalone).", primary)
		e.Gauge("provlight_store_wal_last_seq", "Highest WAL sequence appended (0 for in-memory stores).", float64(st.WALLastSeq))
		e.Gauge("provlight_store_snapshot_seq", "WAL sequence of the last compaction snapshot.", float64(st.SnapshotSeq))
		e.Counter("provlight_store_wal_sync_errors_total", "Background WAL fsync failures — silent durability degradation.", float64(st.WALSyncErrors))
	})
}

// ready backs /readyz: recovery is complete (implied by serving), and a
// read replica's replication stream is attached and healthy.
func (s *Server) ready() error {
	if s.store.Role() != RoleReplica {
		return nil
	}
	if s.Ready == nil {
		return errors.New("replication stream not attached")
	}
	return s.Ready()
}

// Addr returns the listen address.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close shuts the server down.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

func (s *Server) count(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if d := s.ProcessingDelay; d > 0 {
			time.Sleep(d)
		}
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeIngestErr maps store errors onto status codes: fencing rejections
// (replica role, stale term) are 409 Conflict so clients can tell "you
// are talking to the wrong node" from a malformed request, and a write
// the commit wait gave up on is 503, which clients retry.
func writeIngestErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotPrimary), errors.Is(err, ErrStaleTerm):
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrUncommitted):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// requestTerm extracts the writer's replication term from TermHeader
// (0 when absent or unparseable — the unfenced legacy writer).
func requestTerm(r *http.Request) uint64 {
	h := r.Header.Get(TermHeader)
	if h == "" {
		return 0
	}
	term, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0
	}
	return term
}

func (s *Server) handleDataflow(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost, http.MethodPut:
		var df Dataflow
		if err := json.NewDecoder(r.Body).Decode(&df); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.store.RegisterDataflowTerm(requestTerm(r), &df); err != nil {
			writeIngestErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "registered", "tag": df.Tag})
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.store.Dataflows())
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleDataflowGet(w http.ResponseWriter, r *http.Request) {
	tag := strings.TrimPrefix(r.URL.Path, "/dataflow/")
	df, ok := s.store.Dataflow(tag)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dataflow %q not found", tag))
		return
	}
	writeJSON(w, http.StatusOK, df)
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		// Catalog lookup: GET /task?dataflow=...&id=... serves the remote
		// half of the Source interface's Task accessor. The store copies
		// the entry out under its shard lock, so serialization here never
		// races with a concurrent begin/end merge.
		dataflow := r.URL.Query().Get("dataflow")
		id := r.URL.Query().Get("id")
		info, err := s.store.Task(r.Context(), dataflow, id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
		return
	}
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	var msg TaskMsg
	if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if _, err := s.store.IngestFramesTerm(requestTerm(r), []FrameMsg{{Tasks: []*TaskMsg{&msg}}}); err != nil {
		writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		// Catalog listing: GET /tasks?dataflow=... serves the remote half
		// of Source.Tasks — the whole catalog in one round trip.
		// A nil catalog (unknown dataflow) serializes as JSON null, which
		// the client decodes back to nil — symmetric with the local store.
		infos, err := s.store.Tasks(r.Context(), r.URL.Query().Get("dataflow"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, infos)
		return
	}
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	var msgs []*TaskMsg
	if err := json.NewDecoder(r.Body).Decode(&msgs); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if _, err := s.store.IngestFramesTerm(requestTerm(r), []FrameMsg{{Tasks: msgs}}); err != nil {
		writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "ingested": len(msgs)})
}

// handleFrames is the exactly-once ingestion endpoint: a batch of decoded
// capture frames with their (origin, seq) identities, deduplicated by the
// store. The response reports how many frames were newly applied versus
// skipped as redeliveries.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	var frames []FrameMsg
	if err := json.NewDecoder(r.Body).Decode(&frames); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	applied, err := s.store.IngestFramesTerm(requestTerm(r), frames)
	if err != nil {
		writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "applied": applied, "deduplicated": len(frames) - applied,
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	var q Query
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rows, err := s.store.Select(r.Context(), q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, rows)
}
