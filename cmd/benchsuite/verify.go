package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// isNoPath recognises the daemon's "no path" error bodies: the routing
// engine's (flat /path and /sessions) and the federation's.
func isNoPath(body []byte) bool {
	return bytes.Contains(body, []byte("no dominated path")) || bytes.Contains(body, []byte("no stitched path"))
}

// noPathSampleEvery: one in this many flat no-path answers is recomputed
// with the coverage oracle (a 5% sample).
const noPathSampleEvery = 20

type pathReply struct {
	Nodes     []int32 `json:"nodes"`
	Crossings int     `json:"crossings"`
	Segments  []struct {
		Nodes []int32 `json:"nodes"`
	} `json:"segments"`
}

// verifyReplies checks every answer of the measured phase against the
// regenerated topology, off the clock. Status-level failures and content
// failures both count in out.failed.
func verifyReplies(out *runOutput, w *workloadSpec, top *topology.Topology) {
	g := top.Graph
	// Per-hop B-domination holds against the membership read before the
	// phase; churn_heal moves membership, and the federation's per-region
	// coalitions are not served over HTTP, so neither checks it.
	var inB []bool
	if w.name != "churn_heal" && w.regions == 0 {
		inB = coverage.MaskOf(g, out.brokers)
	}
	var oracle *coverage.Dominated
	noPaths := 0
	var crossings, stitched float64

	for c, rs := range out.results {
		for i := range rs {
			r := &rs[i]
			if r.status == statusSkipped {
				continue
			}
			where := func() string {
				return w.name + " client " + strconv.Itoa(c) + " op " + strconv.Itoa(i) + " " + r.op.kind.String()
			}
			if statusFailed(r) {
				out.problemf("%s: status %d: %.120s", where(), r.status, r.body)
				continue
			}
			switch r.op.kind {
			case opTeardown, opFedTeardown, opChurn:
				continue
			}
			if r.status == http.StatusNotFound || r.status == http.StatusConflict {
				if inB != nil && r.op.kind == opPath {
					if noPaths%noPathSampleEvery == 0 {
						if oracle == nil {
							oracle = coverage.NewDominated(g, out.brokers)
						}
						if oracle.HasPath(int(r.op.src), int(r.op.dst)) {
							out.problemf("%s: answered no path for %d->%d but a dominated path exists", where(), r.op.src, r.op.dst)
						}
					}
					noPaths++
				}
				continue
			}
			if r.op.kind == opFedSetup {
				// The setup reply names no nodes; its stitched path is the
				// one the cycle's read verified.
				var s struct {
					Crossings int `json:"crossings"`
				}
				if json.Unmarshal(r.body, &s) == nil {
					crossings += float64(s.Crossings)
					stitched++
				}
				continue
			}
			var p pathReply
			if err := json.Unmarshal(r.body, &p); err != nil {
				out.problemf("%s: undecodable reply: %v", where(), err)
				continue
			}
			if msg := checkPath(g, inB, r.op, &p); msg != "" {
				out.problemf("%s: %s", where(), msg)
			}
		}
	}
	if stitched > 0 {
		out.metrics["federation.crossings_mean"] = crossings / stitched
	}
}

// checkPath returns "" when the served path is right: endpoints match the
// request, consecutive nodes are adjacent, every hop has an endpoint in
// the coalition (when inB is given), and stitched segments chain through
// shared border nodes into exactly the full path.
func checkPath(g *graph.Graph, inB []bool, o op, p *pathReply) string {
	n := p.Nodes
	if len(n) < 2 || n[0] != o.src || n[len(n)-1] != o.dst {
		return "endpoints do not match the request"
	}
	for i := 0; i+1 < len(n); i++ {
		if !g.HasEdge(int(n[i]), int(n[i+1])) {
			return "hop " + strconv.Itoa(i) + " is not a link of the topology"
		}
		if inB != nil && !inB[n[i]] && !inB[n[i+1]] {
			return "hop " + strconv.Itoa(i) + " is not dominated by the coalition"
		}
	}
	if o.kind != opFedPath {
		return ""
	}
	if len(p.Segments) != p.Crossings+1 {
		return "segment count does not match crossings"
	}
	var joined []int32
	for i, seg := range p.Segments {
		if len(seg.Nodes) == 0 {
			return "empty segment"
		}
		if i > 0 && joined[len(joined)-1] != seg.Nodes[0] {
			return "segments " + strconv.Itoa(i-1) + " and " + strconv.Itoa(i) + " do not share their border node"
		}
		if i > 0 {
			joined = append(joined, seg.Nodes[1:]...)
		} else {
			joined = append(joined, seg.Nodes...)
		}
	}
	if len(joined) != len(n) {
		return "segments do not chain into the full path"
	}
	for i := range n {
		if joined[i] != n[i] {
			return "segments do not chain into the full path"
		}
	}
	return ""
}

// verifyAfterChurn is churn_heal's final-state check: the healed coalition
// kept connectivity within 0.02 of where it started, and every resident
// session that survived the churn still reads and releases.
func verifyAfterChurn(out *runOutput, c *httpClient, conn0 float64) {
	var stats struct {
		Connectivity float64 `json:"connectivity"`
	}
	if err := c.getJSON("/stats", &stats); err != nil {
		out.problemf("final /stats: %v", err)
	} else if stats.Connectivity < conn0-0.02 {
		out.problemf("connectivity fell from %.4f to %.4f (floor: initial - 0.02)", conn0, stats.Connectivity)
	}
	var sessions []struct {
		ID int `json:"id"`
	}
	if err := c.getJSON("/sessions", &sessions); err != nil {
		out.problemf("final /sessions: %v", err)
		return
	}
	for _, s := range sessions {
		id := strconv.Itoa(s.ID)
		out.attempted += 2
		if status, err := c.do(http.MethodGet, "/sessions/"+id, nil); err != nil || status != http.StatusOK {
			out.problemf("surviving session %s: GET status %d err %v", id, status, err)
		}
		if status, err := c.do(http.MethodDelete, "/sessions/"+id, nil); err != nil || status != http.StatusOK {
			out.problemf("surviving session %s: DELETE status %d err %v", id, status, err)
		}
	}
}
