package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"brokerset/internal/churn"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
)

// routes mounts the handlers. Each decodes and validates the wire form,
// calls the typed method that does the work, and maps its result onto a
// status; Handler (obs.go) wraps the mux in the tracing middleware.
func (s *Daemon) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /brokers", s.handleBrokers)
	mux.HandleFunc("GET /path", s.handlePath)
	mux.HandleFunc("GET /sessions", s.handleSessionList)
	mux.HandleFunc("POST /sessions", s.handleSessionSetup)
	mux.HandleFunc("GET /sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleSessionTeardown)
	mux.HandleFunc("POST /sessions/{id}/renew", s.handleSessionRenew)
	mux.HandleFunc("POST /churn", s.handleChurn)
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/flight", s.handleDebugFlight)
	if s.fed != nil {
		mux.HandleFunc("GET /federation/regions", s.handleFedRegions)
		mux.HandleFunc("GET /federation/path", s.handleFedPath)
		mux.HandleFunc("GET /federation/sessions", s.handleFedSessionList)
		mux.HandleFunc("POST /federation/sessions", s.handleFedSessionSetup)
		mux.HandleFunc("GET /federation/sessions/{id}", s.handleFedSessionGet)
		mux.HandleFunc("DELETE /federation/sessions/{id}", s.handleFedSessionTeardown)
		mux.HandleFunc("GET /federation/stats", s.handleFedStats)
	}
	return mux
}

// sessionID reads the {id} of a session route; a malformed one is answered
// with 400 and ok is false.
func sessionID(w http.ResponseWriter, r *http.Request) (id int, ok bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad session id %q", r.PathValue("id"))
	}
	return id, err == nil
}

func (s *Daemon) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeStatus(w, http.StatusOK, "ok")
}

type statsResponse struct {
	Nodes        int     `json:"nodes"`
	ASes         int     `json:"ases"`
	IXPs         int     `json:"ixps"`
	Links        int     `json:"links"`
	Brokers      int     `json:"brokers"`
	Connectivity float64 `json:"connectivity"`
	Sessions     int     `json:"active_sessions"`
	Commits      int     `json:"commits"`
	Aborts       int     `json:"aborts"`
}

func (s *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	// Membership and connectivity come from the pinned snapshot
	// (Connectivity is computed once per epoch and cached on it); only
	// the control-plane counter copy still serializes on writeMu.
	snap, st := s.pub.Current(), s.PlaneStats()
	writeJSON(w, http.StatusOK, statsResponse{
		Nodes:        s.top.NumNodes(),
		ASes:         s.top.NumASes(),
		IXPs:         s.top.NumIXPs(),
		Links:        s.top.Graph.NumEdges(),
		Brokers:      snap.NumBrokers(),
		Connectivity: snap.Connectivity(),
		Sessions:     s.sessions.Len(),
		Commits:      st.Commits,
		Aborts:       st.Aborts,
	})
}

// handleMetrics serves the registry as Prometheus text (version 0.0.4).
func (s *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if f := r.URL.Query().Get("format"); f != "" && f != "prometheus" {
		writeError(w, http.StatusBadRequest, "format must be prometheus")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

type brokerInfo struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Degree int    `json:"degree"`
}

func (s *Daemon) handleBrokers(w http.ResponseWriter, r *http.Request) {
	brokers := s.pub.Current().Brokers()
	out := make([]brokerInfo, 0, len(brokers))
	for _, b := range brokers {
		out = append(out, brokerInfo{
			ID: b, Name: s.top.Name[b], Class: s.top.Class[b].String(), Degree: s.top.Graph.Degree(int(b)),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// churnRequest is the POST /churn payload: either an explicit event list,
// or "generate": N to draw N events from the server's seeded generator.
// "heal": false applies damage without repairing (the default heals).
type churnRequest struct {
	Events   []churn.Event `json:"events"`
	Generate int           `json:"generate"`
	Heal     *bool         `json:"heal"`
}

func (s *Daemon) handleChurn(w http.ResponseWriter, r *http.Request) {
	var req churnRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Generate < 0 || req.Generate > 100000 {
		writeError(w, http.StatusBadRequest, "generate outside [0,100000]")
		return
	}
	res, err := s.Churn(r.Context(), req.Events, req.Generate, req.Heal == nil || *req.Heal)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// pathResponse is the schema of a GET /path answer; appendPath writes it
// (without building the Names slice) and clients decode it.
type pathResponse struct {
	Nodes     []int32  `json:"nodes"`
	Names     []string `json:"names"`
	Hops      int      `json:"hops"`
	LatencyMs float64  `json:"latency_ms"`
}

// parsePathOptions reads the query a path endpoint takes — src, dst and the
// optional maxhops and minbw constraints, parsed once by parsePathQuery —
// and returns the message of the 400 to answer when it is malformed. What it
// returns is safe to key a cache with: minbw is finite (a NaN never equals
// itself, so every repeat of such a query would miss and leave one more
// unreachable entry), and a hop bound no simple path can exceed is the
// unbounded query, so it reads as one (latencies are positive, so an optimum
// is simple and has at most numNodes-1 hops; folding the bound also keeps it
// inside the key's int32).
func parsePathOptions(q pathQuery, numNodes int) (src, dst int, opts routing.Options, err error) {
	src, err1 := strconv.Atoi(q.src)
	dst, err2 := strconv.Atoi(q.dst)
	if err1 != nil || err2 != nil {
		return 0, 0, opts, errors.New("src and dst must be integer node ids")
	}
	if src < 0 || src >= numNodes || dst < 0 || dst >= numNodes {
		return 0, 0, opts, fmt.Errorf("node ids outside [0,%d)", numNodes)
	}
	if v := q.maxhops; v != "" {
		mh, err := strconv.Atoi(v)
		if err != nil || mh < 1 {
			return 0, 0, opts, errors.New("maxhops must be a positive integer")
		}
		if mh < numNodes-1 {
			opts.MaxHops = mh
		}
	}
	if v := q.minbw; v != "" {
		bw, err := strconv.ParseFloat(v, 64)
		if err != nil || bw < 0 || math.IsNaN(bw) || math.IsInf(bw, 0) {
			return 0, 0, opts, errors.New("minbw must be a finite, non-negative number")
		}
		opts.MinBandwidth = bw
	}
	return src, dst, opts, nil
}

func (s *Daemon) handlePath(w http.ResponseWriter, r *http.Request) {
	q := parsePathQuery(r.URL.RawQuery)
	src, dst, opts, err := parsePathOptions(q, s.top.NumNodes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	p, cached, err := s.qp.Query(r.Context(), src, dst, opts)
	if err != nil {
		trace := obs.TraceIDFrom(r.Context())
		switch {
		case errors.Is(err, queryplane.ErrShed):
			s.refuseSpan(r.Context(), "brokerd.query_refused", "shed")
			s.sloQuery.Record(false, trace)
			w.Header().Set("Retry-After", strconv.Itoa(int(s.qp.RetryAfter().Seconds())))
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			s.refuseSpan(r.Context(), "brokerd.query_refused", "timeout")
			s.sloQuery.Record(false, trace)
			writeError(w, http.StatusGatewayTimeout, "path computation timed out")
		case errors.Is(err, context.Canceled):
			s.refuseSpan(r.Context(), "brokerd.query_refused", "canceled")
			writeError(w, http.StatusServiceUnavailable, "query canceled")
		default:
			writeError(w, http.StatusNotFound, "%v", err)
		}
		return
	}
	s.sloQuery.Observe(time.Since(start), obs.TraceIDFrom(r.Context()))
	if cached {
		w.Header()["X-Cache"] = cacheHit
	} else {
		w.Header()["X-Cache"] = cacheMiss
	}
	jb := newBody()
	jb.b = appendPath(jb.b, p.Nodes, s.top.Name, p.Latency)
	jb.send(w, http.StatusOK)
}

type sessionRequest struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Gbps float64 `json:"gbps"`
}

type sessionResponse struct {
	ID        int     `json:"id"`
	Nodes     []int32 `json:"nodes"`
	Hops      int     `json:"hops"`
	Bandwidth float64 `json:"gbps"`
}

// sessionRequest decodes and range-checks the body of a session setup; a
// malformed one is answered with 400 and ok is false.
func (s *Daemon) sessionRequest(w http.ResponseWriter, r *http.Request) (req sessionRequest, ok bool) {
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return req, false
	}
	if n := s.top.NumNodes(); req.Src < 0 || req.Src >= n || req.Dst < 0 || req.Dst >= n {
		writeError(w, http.StatusBadRequest, "node ids outside [0,%d)", n)
		return req, false
	}
	return req, true
}

func sessionJSON(sess *ctrlplane.Session) sessionResponse {
	return sessionResponse{
		ID: sess.ID, Nodes: sess.Path, Hops: len(sess.Path) - 1, Bandwidth: sess.Bandwidth,
	}
}

func (s *Daemon) handleSessionList(w http.ResponseWriter, r *http.Request) {
	list := s.Sessions()
	out := make([]sessionResponse, 0, len(list))
	for _, sess := range list {
		out = append(out, sessionJSON(sess))
	}
	writeJSON(w, http.StatusOK, out)
}

// writeSession answers one session record.
func writeSession(w http.ResponseWriter, status int, sess *ctrlplane.Session) {
	jb := newBody()
	jb.b = sessionJSON(sess).appendJSON(jb.b)
	jb.send(w, status)
}

func (s *Daemon) handleSessionSetup(w http.ResponseWriter, r *http.Request) {
	req, ok := s.sessionRequest(w, r)
	if !ok {
		return
	}
	sess, err := s.Setup(r.Context(), req.Src, req.Dst, req.Gbps)
	switch {
	case errors.Is(err, errSetupShed):
		// Degraded mode: the batch queue is over its high-water
		// mark. Renewals and teardowns still flow; new load waits.
		w.Header().Set("Retry-After", strconv.Itoa(int(setupRetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeSession(w, http.StatusCreated, sess)
	}
}

func (s *Daemon) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	sess, ok := s.Session(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no session %d", id)
		return
	}
	writeSession(w, http.StatusOK, sess)
}

func (s *Daemon) handleSessionTeardown(w http.ResponseWriter, r *http.Request) {
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	switch err := s.Teardown(r.Context(), id); {
	case errors.Is(err, errNoSession):
		writeError(w, http.StatusNotFound, "no session %d", id)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeStatus(w, http.StatusOK, "released")
	}
}

// handleSessionRenew serves POST /sessions/{id}/renew — the heartbeat.
func (s *Daemon) handleSessionRenew(w http.ResponseWriter, r *http.Request) {
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	if !s.Renew(id) {
		// 410: the client must set up a new session, not keep heartbeating.
		s.refuseSpan(r.Context(), "brokerd.renew_refused", "lease_lapsed")
		s.sloSetup.Record(false, obs.TraceIDFrom(r.Context()))
		writeError(w, http.StatusGone, "session %d holds no lease", id)
		return
	}
	writeStatus(w, http.StatusOK, "renewed")
}
