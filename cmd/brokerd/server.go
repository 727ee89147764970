package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"brokerset/internal/broker"
	"brokerset/internal/churn"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/epoch"
	"brokerset/internal/obs"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// server exposes the broker coalition over HTTP: path queries served
// through the concurrent query plane (sharded cache + singleflight +
// bounded worker pool), QoS session setup/teardown through the
// control-plane two-phase commit, and an admin churn plane that mutates
// the live topology and self-heals the coalition.
//
// Concurrency protocol: readers never lock. Every read path (path queries,
// /stats connectivity, /brokers, healer selection input) pins the current
// epoch snapshot from pub and computes against it. All mutations — churn
// application, healing, and the control plane's 2PC — serialize on writeMu
// (a plain mutex: there is exactly one logical writer at a time), build
// the next snapshot copy-on-write, and publish it with one atomic swap
// before releasing the lock.
type server struct {
	top     *topology.Topology
	metrics *routing.Metrics

	qp       *queryplane.QueryPlane
	sessions *queryplane.SessionStore

	// pub owns the atomically-published topology snapshot readers pin.
	pub *epoch.Publisher

	// writeMu serializes every mutation of shared link/broker state (the
	// metrics arrays, churn down-marks, coalition membership, and the
	// control plane's ledgers). Readers do not take it — they use pub.
	writeMu sync.Mutex
	plane   *ctrlplane.Plane

	// commit coalesces concurrent session lifecycle requests into
	// group-commit batches (see commit.go): one 2PC round and one snapshot
	// publish per batch, with degraded-mode setup shedding.
	commit *committer

	churnState *churn.State
	applier    *churn.Applier
	gen        *churn.Generator
	healer     *churn.Healer

	// fed is the in-process federation fabric (nil unless -regions is
	// set); see federation.go for the lock protocol and endpoints.
	fed *fedState

	// econ is the live economics plane (nil unless -econ is set); the
	// query plane's admission hook and the /econ/* handlers read it with
	// one atomic load, so the disabled path stays effectively free.
	econ econPointer

	// Unified observability (see initObs): metrics registry, request
	// tracer, control-plane flight recorder, HTTP front-door instruments.
	reg      *obs.Registry
	tracer   *obs.Tracer
	flight   *obs.FlightRecorder
	httpReqs *obs.Counter
	httpHist *obs.Histogram

	// SLO plane (nil unless -slo-query-p99 is set; see slo.go): the
	// handlers feed the objectives, runSLOLoop evaluates burn rates, and a
	// firing alert dumps the flight recorder to sloDump.
	slo         *obs.SLOEngine
	sloQuery    *obs.SLOObjective
	sloSetup    *obs.SLOObjective
	sloCrossing []*obs.SLOObjective
	sloDump     string
}

// newServer wires a server for the topology: it selects k brokers with
// MaxSG and builds the routing engine, control plane, query plane, and the
// churn/self-healing plane. healTarget is the saturated connectivity the
// healer must restore after damage (0 = the initial coalition's
// connectivity). churnSeed seeds the admin churn generator.
func newServer(top *topology.Topology, k int, healTarget float64, churnSeed int64) (*server, error) {
	var (
		brokers []int32
		err     error
	)
	if k <= 0 {
		brokers, err = broker.MaxSGComplete(top.Graph)
	} else {
		brokers, err = broker.MaxSG(top.Graph, k)
	}
	if err != nil {
		return nil, err
	}
	// One metrics instance backs both the epoch snapshots path queries
	// read and the control plane's capacity ledgers, so path queries
	// observe the residual capacity sessions actually reserve.
	metrics := routing.DefaultMetrics(top, nil)
	s := &server{
		top:      top,
		metrics:  metrics,
		sessions: queryplane.NewSessionStore(16),
		plane:    ctrlplane.New(top, metrics, brokers),
	}
	s.churnState = churn.NewState(top, metrics)
	s.applier = churn.NewApplier(s.churnState)
	s.gen = churn.NewGenerator(s.churnState, func() []int32 { return s.plane.Brokers() }, churn.GenConfig{Seed: churnSeed})
	s.pub = epoch.NewPublisher(s.churnState.Snapshot(brokers, metrics.View()))

	s.qp, err = queryplane.New(queryplane.Config{
		// Cache entries are keyed to the epoch they were computed under:
		// every snapshot publication stales the whole cache.
		Generation: s.pub.Epoch,
		// A stale entry whose path still checks out against the current
		// snapshot is re-stamped instead of recomputed — an O(hops) walk
		// replaces a full search for every path the churn didn't touch.
		Revalidate: func(p *routing.Path, opts routing.Options, gen uint64) bool {
			snap := s.pub.Current()
			return snap.ID() == gen && snap.PathValid(p, opts)
		},
		// The server itself is the admission hook: it delegates to the
		// econ plane when -econ enabled one, and admits everything (one
		// atomic nil-check) otherwise.
		Admission: s,
		Compute: func(ctx context.Context, src, dst int, opts routing.Options) (*routing.Path, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Lock-free: pin the current snapshot and search its frozen
			// view. A concurrent mutation publishes a successor, which
			// this computation never observes — the result is a
			// consistent single-epoch answer either way.
			return s.pub.Current().BestPath(src, dst, opts)
		},
	})
	if err != nil {
		return nil, err
	}

	if healTarget <= 0 {
		healTarget = coverageConnectivity(top, brokers)
	}
	if healTarget <= 0 || healTarget > 1 {
		return nil, fmt.Errorf("brokerd: heal target %f outside (0,1]", healTarget)
	}
	// No Invalidator and no BrokersChanged hook: publishing the post-heal
	// snapshot both carries the new membership to readers and stales the
	// query-plane cache (its generation is the epoch).
	s.healer, err = churn.NewHealer(s.churnState, s.plane, s.sessions, nil, churn.HealerConfig{
		Target: healTarget,
		Epoch:  s.pub.Epoch,
	})
	if err != nil {
		return nil, err
	}
	s.commit = newCommitter(s)
	s.initObs()
	return s, nil
}

// publishLocked builds the next snapshot from the current state and
// publishes it. Callers hold writeMu.
func (s *server) publishLocked(ctx context.Context) {
	s.pub.Publish(ctx, s.churnState.Snapshot(s.plane.Brokers(), s.metrics.View()))
}

// churnAndHeal applies a burst of churn events and runs one heal pass, all
// under the write mutex. Either half may be empty (nil events = heal
// only). It backs both POST /churn and the -churn background loop.
// Publication discipline: the damage snapshot is published as soon as the
// events land (readers must stop routing over failed links before the
// heal finishes), and a second snapshot is published after a heal that
// changed anything.
func (s *server) churnAndHeal(ctx context.Context, events []churn.Event, heal bool) (churn.BlastRadius, *churn.HealReport, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	blast, err := s.applier.ApplyAll(events)
	if err != nil {
		return blast, nil, err
	}
	s.healer.Metrics.EventsApplied.Add(uint64(len(events)))
	// Any applied damage becomes visible (and stales cached paths, via the
	// epoch generation) even before healing.
	if blast.Size() > 0 || blast.BrokerPlane {
		s.publishLocked(ctx)
	}
	if !heal {
		return blast, nil, nil
	}
	hctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	// Churn damage comes with its blast radius, so the healer repairs the
	// coalition with the localized incremental path (falling back to a full
	// reselect only when the quality floor is breached). A heal-only call
	// (nil events) has no blast information and runs the full maintain.
	var rep *churn.HealReport
	if len(events) > 0 {
		rep, err = s.healer.HealWithBlast(hctx, blast)
	} else {
		rep, err = s.healer.Heal(hctx)
	}
	if rep != nil && healChangedState(rep) {
		s.publishLocked(ctx)
	}
	return blast, rep, err
}

// healChangedState reports whether a heal pass mutated shared state (so a
// new snapshot must be published). A no-op maintain pass leaves the
// current snapshot — and every session staleness stamp keyed to its epoch
// — valid.
func healChangedState(rep *churn.HealReport) bool {
	return len(rep.BrokersAdded) > 0 || len(rep.BrokersRemoved) > 0 ||
		len(rep.BrokersRecovered) > 0 ||
		rep.SessionsRepaired > 0 || rep.SessionsAborted > 0
}

// runChurnLoop drives background churn: every interval it draws a Poisson
// burst from the seeded generator, applies it, and heals. It exits when ctx
// is cancelled.
func (s *server) runChurnLoop(ctx context.Context, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.writeMu.Lock()
			events := s.gen.Tick()
			s.writeMu.Unlock()
			if _, _, err := s.churnAndHeal(ctx, events, true); err != nil {
				fmt.Printf("brokerd: churn loop: %v\n", err)
			}
		}
	}
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/brokers", s.handleBrokers)
	mux.HandleFunc("/path", s.handlePath)
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("/sessions/", s.handleSessionByID)
	mux.HandleFunc("/churn", s.handleChurn)
	mux.HandleFunc("/econ/price", s.handleEconPrice)
	mux.HandleFunc("/econ/quote", s.handleEconQuote)
	mux.HandleFunc("/econ/settlement", s.handleEconSettlement)
	mux.HandleFunc("/econ/stats", s.handleEconStats)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/debug/flight", s.handleDebugFlight)
	if s.fed != nil {
		mux.HandleFunc("/federation/regions", s.handleFedRegions)
		mux.HandleFunc("/federation/path", s.handleFedPath)
		mux.HandleFunc("/federation/sessions", s.handleFedSessions)
		mux.HandleFunc("/federation/sessions/", s.handleFedSessionByID)
		mux.HandleFunc("/federation/stats", s.handleFedStats)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Membership and connectivity come from the pinned snapshot
	// (Connectivity is computed once per epoch and cached on it); only
	// the control-plane counter copy still serializes on writeMu.
	snap := s.pub.Current()
	s.writeMu.Lock()
	st := s.plane.Stats()
	s.writeMu.Unlock()
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
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if f := r.URL.Query().Get("format"); f != "" && f != "prometheus" {
		writeError(w, http.StatusBadRequest, "format must be prometheus")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// currentBrokers returns a copy of the current snapshot's coalition
// membership. Lock-free.
func (s *server) currentBrokers() []int32 {
	return append([]int32(nil), s.pub.Current().Brokers()...)
}

type brokerInfo struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Degree int    `json:"degree"`
}

func (s *server) handleBrokers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
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

type churnResponse struct {
	Applied int               `json:"applied"`
	Events  []churn.Event     `json:"events"`
	Blast   churn.BlastRadius `json:"blast"`
	Heal    *churn.HealReport `json:"heal,omitempty"`
}

func (s *server) handleChurn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req churnRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Generate < 0 || req.Generate > 100000 {
		writeError(w, http.StatusBadRequest, "generate outside [0,100000]")
		return
	}
	events := req.Events
	if req.Generate > 0 {
		s.writeMu.Lock()
		gen, err := s.gen.GenerateTrace(req.Generate)
		s.writeMu.Unlock()
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		events = append(events, gen...)
	}
	heal := req.Heal == nil || *req.Heal
	blast, rep, err := s.churnAndHeal(r.Context(), events, heal)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, churnResponse{
		Applied: len(events),
		Events:  events,
		Blast:   blast,
		Heal:    rep,
	})
}

type pathResponse struct {
	Nodes     []int32  `json:"nodes"`
	Names     []string `json:"names"`
	Hops      int      `json:"hops"`
	LatencyMs float64  `json:"latency_ms"`
}

// parsePathOptions reads the query a path endpoint takes — src, dst and the
// optional maxhops and minbw constraints — and returns the message of the
// 400 to answer when it is malformed. What it returns is safe to key a cache
// with: minbw is finite (a NaN never equals itself, so every repeat of such
// a query would miss and leave one more unreachable entry), and a hop bound
// no simple path can exceed is the unbounded query, so it reads as one
// (latencies are positive, so an optimum is simple and has at most
// numNodes-1 hops; folding the bound also keeps it inside the key's int32).
func parsePathOptions(r *http.Request, numNodes int) (src, dst int, opts routing.Options, err error) {
	q := r.URL.Query()
	src, err1 := strconv.Atoi(q.Get("src"))
	dst, err2 := strconv.Atoi(q.Get("dst"))
	if err1 != nil || err2 != nil {
		return 0, 0, opts, errors.New("src and dst must be integer node ids")
	}
	if src < 0 || src >= numNodes || dst < 0 || dst >= numNodes {
		return 0, 0, opts, fmt.Errorf("node ids outside [0,%d)", numNodes)
	}
	if v := q.Get("maxhops"); v != "" {
		mh, err := strconv.Atoi(v)
		if err != nil || mh < 1 {
			return 0, 0, opts, errors.New("maxhops must be a positive integer")
		}
		if mh < numNodes-1 {
			opts.MaxHops = mh
		}
	}
	if v := q.Get("minbw"); v != "" {
		bw, err := strconv.ParseFloat(v, 64)
		if err != nil || bw < 0 || math.IsNaN(bw) || math.IsInf(bw, 0) {
			return 0, 0, opts, errors.New("minbw must be a finite, non-negative number")
		}
		opts.MinBandwidth = bw
	}
	return src, dst, opts, nil
}

func (s *server) handlePath(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	src, dst, opts, err := parsePathOptions(r, s.top.NumNodes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	p, cached, err := s.qp.QueryBid(r.Context(), src, dst, opts, parseBid(r))
	if err != nil {
		trace := obs.TraceIDFrom(r.Context())
		var pe *queryplane.PriceError
		switch {
		case errors.As(err, &pe):
			// Priced admission is policy, not a reliability failure: it gets
			// a terminal span but does not burn the latency error budget.
			s.refuseSpan(r.Context(), "brokerd.query_refused", "priced_admission")
			s.writePriceRejection(w, pe.Quote)
		case errors.Is(err, queryplane.ErrShed):
			s.refuseSpan(r.Context(), "brokerd.query_refused", "shed")
			if s.sloQuery != nil {
				s.sloQuery.Record(false, trace)
			}
			w.Header().Set("Retry-After", strconv.Itoa(int(s.qp.RetryAfter().Seconds())))
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			s.refuseSpan(r.Context(), "brokerd.query_refused", "timeout")
			if s.sloQuery != nil {
				s.sloQuery.Record(false, trace)
			}
			writeError(w, http.StatusGatewayTimeout, "path computation timed out")
		case errors.Is(err, context.Canceled):
			s.refuseSpan(r.Context(), "brokerd.query_refused", "canceled")
			writeError(w, http.StatusServiceUnavailable, "query canceled")
		default:
			writeError(w, http.StatusNotFound, "%v", err)
		}
		return
	}
	if s.sloQuery != nil {
		s.sloQuery.Observe(time.Since(start), obs.TraceIDFrom(r.Context()))
	}
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	// Each served path credits the coalition members that carry it with
	// one settlement unit (no-op while the econ plane is disabled).
	s.recordCarriers(p.Nodes, 1)
	names := make([]string, len(p.Nodes))
	for i, u := range p.Nodes {
		names[i] = s.top.Name[u]
	}
	writeJSON(w, http.StatusOK, pathResponse{
		Nodes: p.Nodes, Names: names, Hops: p.Hops(), LatencyMs: p.Latency,
	})
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

func sessionJSON(sess *ctrlplane.Session) sessionResponse {
	return sessionResponse{
		ID: sess.ID, Nodes: sess.Path, Hops: len(sess.Path) - 1, Bandwidth: sess.Bandwidth,
	}
}

// opTimeout bounds one control-plane operation (2PC retries included) so a
// sick coalition cannot pin the state write lock indefinitely.
const opTimeout = 2 * time.Second

// setup establishes a session in two phases. Path computation is
// lock-free: it pins the current epoch snapshot and searches its frozen
// view, so concurrent /path queries are never blocked behind it. The
// commit itself goes through the group committer (commit.go): concurrent
// setups coalesce into one 2PC round and one snapshot publish per batch,
// and the staleness fallbacks (stale-epoch retry against live state,
// post-commit damage repair) run inside the batch leader. Degraded mode
// returns errSetupShed without touching the plane.
func (s *server) setup(ctx context.Context, req sessionRequest) (*ctrlplane.Session, error) {
	snap := s.pub.Current()
	op := &pendingOp{req: req, snapID: snap.ID(), done: make(chan struct{})}
	// Resolve the path through the query-plane cache (stale entries
	// revalidate in O(hops) against the pinned snapshot — setup storms over
	// popular routes skip the full search), inline and unmetered. The
	// session's bandwidth is the query's floor: the cached minimum-latency
	// path answers it whenever it has the bandwidth (constraint dominance),
	// and when it does not the search routes around the thin link instead of
	// handing the committer a path it must refuse.
	opts := routing.Options{MinBandwidth: max(req.Gbps, 0)}
	if path, _, err := s.qp.Resolve(ctx, req.Src, req.Dst, opts); err == nil {
		op.path = path.Nodes
	}
	if err := s.commit.submit(ctx, op); err != nil {
		return nil, err
	}
	return op.sess, op.err
}

// teardown releases a session through the group committer. Teardowns are
// never shed — they shrink load.
func (s *server) teardown(ctx context.Context, sess *ctrlplane.Session) error {
	op := &pendingOp{tear: sess, done: make(chan struct{})}
	if err := s.commit.submit(ctx, op); err != nil {
		return err
	}
	return op.err
}

func (s *server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		list := s.sessions.List()
		out := make([]sessionResponse, 0, len(list))
		for _, sess := range list {
			out = append(out, sessionJSON(sess))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req sessionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		if req.Src < 0 || req.Src >= s.top.NumNodes() || req.Dst < 0 || req.Dst >= s.top.NumNodes() {
			writeError(w, http.StatusBadRequest, "node ids outside [0,%d)", s.top.NumNodes())
			return
		}
		sess, err := s.setup(r.Context(), req)
		if err != nil {
			if s.sloSetup != nil {
				s.sloSetup.Record(false, obs.TraceIDFrom(r.Context()))
			}
			if errors.Is(err, errSetupShed) {
				// Degraded mode: the batch queue is over its high-water
				// mark. Renewals and teardowns still flow; new load waits.
				s.refuseSpan(r.Context(), "brokerd.setup_refused", "shed")
				w.Header().Set("Retry-After", strconv.Itoa(int(s.commit.retryAfter.Seconds())))
				writeError(w, http.StatusTooManyRequests, "%v", err)
				return
			}
			s.refuseSpan(r.Context(), "brokerd.setup_refused", "conflict")
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		if s.sloSetup != nil {
			s.sloSetup.Record(true, 0)
		}
		s.sessions.Put(sess)
		// A committed reservation credits its carrying brokers with the
		// session's bandwidth in settlement units.
		s.recordCarriers(sess.Path, sess.Bandwidth)
		writeJSON(w, http.StatusCreated, sessionJSON(sess))
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

func (s *server) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/sessions/")
	renew := false
	if rest, ok := strings.CutSuffix(idStr, "/renew"); ok {
		idStr, renew = rest, true
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad session id %q", idStr)
		return
	}
	if renew {
		s.handleSessionRenew(w, r, id)
		return
	}
	switch r.Method {
	case http.MethodDelete:
		sess, ok := s.sessions.Delete(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no session %d", id)
			return
		}
		if err := s.teardown(r.Context(), sess); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "released"})
	case http.MethodGet:
		sess, ok := s.sessions.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no session %d", id)
			return
		}
		writeJSON(w, http.StatusOK, sessionJSON(sess))
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or DELETE")
	}
}
