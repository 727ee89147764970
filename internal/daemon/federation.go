// Federation support: with Regions N, the daemon partitions its topology
// into N broker regions, boots the full in-process federation fabric
// next to the flat coalition, and exposes it under /federation/*:
//
//	GET    /federation/regions
//	GET    /federation/path?src=A&dst=B[&maxhops=N][&minbw=G]
//	GET    /federation/sessions
//	POST   /federation/sessions          {"src":A,"dst":B,"gbps":G}
//	GET    /federation/sessions/{id}
//	DELETE /federation/sessions/{id}
//	GET    /federation/stats
//
// A shed stitched query returns 429 with Retry-After and X-Shed-Region
// naming the region whose query plane refused, so clients can report
// per-region pushback. A background job beats the fabric every 100 ms
// (Fabric.Beat: lease clocks, gossip, the healer).
//
// A POST or DELETE on /federation/sessions is one round of the two-level
// commit: the home region sends each transit region an X-PREPARE and then
// one decision record (commit, abort or release) — the same record and the
// same delivery engine the flat /sessions path uses one level down. The
// request's context bounds the retries; a client that hangs up leaves the
// decision to the fabric's backlog and never counts against a peer
// region's circuit breaker.
//
// Regions N serves every region from one process; one daemon per region
// needs the inter-region bus to speak HTTP first.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"brokerset/internal/federation"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// enableFederation partitions the daemon's topology into regions and
// boots the fabric. It shares the daemon's metrics assignment so a
// stitched segment quotes the same link latencies /path does, and
// registers the federation_* counters on the daemon's registry.
func (s *Daemon) enableFederation() error {
	fabric, err := federation.New(s.top, federation.Config{
		Regions:        s.cfg.Regions,
		BrokerBudget:   s.cfg.K,
		CrossingCostMs: s.cfg.CrossingCost,
		Seed:           s.cfg.Seed,
		Metrics:        s.metrics,
	})
	if err != nil {
		return err
	}
	s.fed = fabric
	fabric.SetFlightRecorder(s.flight)
	// Sharing the daemon's tracer lets each region's sub-coordinator adopt
	// the trace ID riding incoming X-PREPAREs and decision records, so one
	// stitched trace covers the HTTP request, the home-region 2PC, and
	// every transit region's sub-transaction.
	fabric.SetTracer(s.tracer)
	fabric.RegisterMetrics(s.reg)
	return nil
}

type fedRegionInfo struct {
	ID         int     `json:"id"`
	Up         bool    `json:"up"`
	Members    int     `json:"members"`
	Brokers    int     `json:"brokers"`
	BorderIXPs []int32 `json:"border_ixps"`
	Epoch      uint64  `json:"epoch"`
}

// fedRegions describes every region of the fabric, border IXPs (global ids)
// included when borders is set.
func fedRegions(fabric *federation.Fabric, borders bool) []fedRegionInfo {
	out := make([]fedRegionInfo, fabric.NumRegions())
	for i := range out {
		reg := fabric.Region(i)
		out[i] = fedRegionInfo{
			ID:      i,
			Up:      !fabric.RegionCrashed(i),
			Members: len(fabric.Partition().Members(i)),
			Brokers: len(reg.Brokers),
			Epoch:   reg.Pub.Epoch(),
		}
		if borders {
			out[i].BorderIXPs = reg.GlobalPath(reg.BorderIXPs())
		}
	}
	return out
}

func (s *Daemon) handleFedRegions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fedRegions(s.fed, true))
}

type fedSegmentJSON struct {
	Region    int     `json:"region"`
	Nodes     []int32 `json:"nodes"`
	LatencyMs float64 `json:"latency_ms"`
}

type fedPathResponse struct {
	Nodes     []int32          `json:"nodes"`
	Hops      int              `json:"hops"`
	LatencyMs float64          `json:"latency_ms"`
	Crossings int              `json:"crossings"`
	Segments  []fedSegmentJSON `json:"segments"`
}

func fedPathJSON(sp *federation.StitchedPath) fedPathResponse {
	segs := make([]fedSegmentJSON, 0, len(sp.Segments))
	for _, seg := range sp.Segments {
		segs = append(segs, fedSegmentJSON{Region: seg.Region, Nodes: seg.Nodes, LatencyMs: seg.LatencyMs})
	}
	return fedPathResponse{
		Nodes: sp.Nodes, Hops: len(sp.Nodes) - 1, LatencyMs: sp.LatencyMs,
		Crossings: sp.Crossings, Segments: segs,
	}
}

func (s *Daemon) handleFedPath(w http.ResponseWriter, r *http.Request) {
	src, dst, opts, err := parsePathOptions(parsePathQuery(r.URL.RawQuery), s.top.NumNodes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp, err := s.fed.StitchPath(r.Context(), int32(src), int32(dst), opts)
	if err != nil {
		var shed *federation.ShedError
		switch {
		case errors.As(err, &shed):
			s.refuseSpan(r.Context(), "brokerd.fedquery_refused", "shed")
			if shed.Region >= 0 && shed.Region < len(s.sloCrossing) {
				s.sloCrossing[shed.Region].Record(false, obs.TraceIDFrom(r.Context()))
			}
			w.Header().Set("Retry-After", strconv.Itoa(int(shed.RetryAfter.Seconds())))
			w.Header().Set("X-Shed-Region", strconv.Itoa(shed.Region))
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, federation.ErrNoRoute):
			writeError(w, http.StatusNotFound, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	// Per-region crossing objectives: each stitched segment's modeled
	// latency is classified against the region's crossing budget, so /slo
	// breaks a burning federation down to the region dragging it.
	if len(s.sloCrossing) > 0 {
		trace := obs.TraceIDFrom(r.Context())
		for _, seg := range sp.Segments {
			if seg.Region >= 0 && seg.Region < len(s.sloCrossing) {
				s.sloCrossing[seg.Region].Observe(time.Duration(seg.LatencyMs*float64(time.Millisecond)), trace)
			}
		}
	}
	writeJSON(w, http.StatusOK, fedPathJSON(sp))
}

type fedSessionResponse struct {
	ID        int     `json:"id"`
	Src       int32   `json:"src"`
	Dst       int32   `json:"dst"`
	Bandwidth float64 `json:"gbps"`
	State     string  `json:"state"`
	Epoch     uint32  `json:"epoch"`
	Crossings int     `json:"crossings"`
	LatencyMs float64 `json:"latency_ms"`
}

// fedSessionJSON renders a standing session: every record the fabric hands
// out is committed.
func fedSessionJSON(sess *federation.Session) fedSessionResponse {
	return fedSessionResponse{
		ID: sess.ID, Src: sess.Src, Dst: sess.Dst, Bandwidth: sess.Bandwidth,
		State: "committed", Epoch: sess.Epoch,
		Crossings: sess.Stitched.Crossings, LatencyMs: sess.Stitched.LatencyMs,
	}
}

func (s *Daemon) handleFedSessionList(w http.ResponseWriter, r *http.Request) {
	sessions := s.fed.Sessions()
	out := make([]fedSessionResponse, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, fedSessionJSON(sess))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Daemon) handleFedSessionSetup(w http.ResponseWriter, r *http.Request) {
	req, ok := s.sessionRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), opTimeout)
	defer cancel()
	sess, err := s.fed.Setup(ctx, int32(req.Src), int32(req.Dst), req.Gbps, routing.Options{})
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, fedSessionJSON(sess))
}

func (s *Daemon) handleFedSessionGet(w http.ResponseWriter, r *http.Request) {
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	sess := s.fed.Session(id)
	if sess == nil {
		writeError(w, http.StatusNotFound, "no federated session %d", id)
		return
	}
	writeJSON(w, http.StatusOK, fedSessionJSON(sess))
}

func (s *Daemon) handleFedSessionTeardown(w http.ResponseWriter, r *http.Request) {
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), opTimeout)
	defer cancel()
	switch err := s.fed.Teardown(ctx, &federation.Session{ID: id}); {
	case errors.Is(err, federation.ErrNoSession):
		writeError(w, http.StatusNotFound, "no federated session %d", id)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeStatus(w, http.StatusOK, "released")
	}
}

type fedStatsResponse struct {
	Regions []fedRegionInfo  `json:"regions"`
	Stats   federation.Stats `json:"stats"`
}

func (s *Daemon) handleFedStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fedStatsResponse{Regions: fedRegions(s.fed, false), Stats: s.fed.Stats()})
}

// FederationSummary describes the booted regions (members and brokers
// each) for the startup log; empty without Regions.
func (s *Daemon) FederationSummary() string {
	if s.fed == nil {
		return ""
	}
	var parts []string
	for _, ri := range fedRegions(s.fed, false) {
		parts = append(parts, fmt.Sprintf("r%d:%dn/%db", ri.ID, ri.Members, ri.Brokers))
	}
	return strings.Join(parts, " ")
}
