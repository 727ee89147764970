package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"brokerset/internal/obs"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
)

// Segment is one region's contribution to a stitched path.
type Segment struct {
	// Region is the owning region.
	Region int
	// Nodes is the segment in GLOBAL node ids. A zero-length segment (one
	// node) occurs when the path enters and leaves a region at the same
	// border IXP.
	Nodes []int32
	// LatencyMs is the segment's end-to-end latency as quoted by the
	// region's query plane against its current epoch snapshot.
	LatencyMs float64
}

// StitchedPath is a cross-region path: per-region B-dominated segments
// joined at shared border IXPs.
type StitchedPath struct {
	Segments []Segment
	// Nodes is the full path in global ids, joints deduplicated.
	Nodes []int32
	// Crossings counts region handovers (len(Segments)-1).
	Crossings int
	// LatencyMs = sum of segment latencies + Crossings * CrossingCostMs.
	LatencyMs float64
}

// ShedError reports which region's query plane shed a stitch sub-query
// under overload, carrying its backpressure hint. It unwraps to
// queryplane.ErrShed so callers' existing shed handling keeps working.
type ShedError struct {
	Region     int
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("federation: region %d shed stitch query (retry after %s)", e.Region, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return queryplane.ErrShed }

// ErrNoRoute reports that no stitched path satisfying the constraints
// exists (or every region route is severed by crashes).
var ErrNoRoute = errors.New("federation: no stitched path")

// StitchPath answers a cross-region path query for global src → dst:
// it walks the region adjacency graph from src's region to dst's region
// (skipping crashed regions), and for each region route stitches the
// cheapest chain of per-region segments joined at live border IXPs,
// charging CrossingCostMs per handover. Read-only: no fabric time passes
// and no state mutates, so any number of stitches share the fabric's read
// lock.
func (f *Fabric) StitchPath(ctx context.Context, src, dst int32, opts routing.Options) (*StitchedPath, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.stitchPath(ctx, src, dst, opts)
}

func (f *Fabric) stitchPath(ctx context.Context, src, dst int32, opts routing.Options) (*StitchedPath, error) {
	ctx, span := obs.StartSpan(ctx, "federation.stitch")
	defer span.End()
	if int(src) >= f.top.NumNodes() || int(dst) >= f.top.NumNodes() || src < 0 || dst < 0 {
		return nil, fmt.Errorf("federation: node out of range")
	}
	rs, rd := f.part.RegionOf(src), f.part.RegionOf(dst)
	span.Annotatef("route", "region %d -> %d", rs, rd)
	if f.regions[rs].crashed || f.regions[rd].crashed {
		return nil, fmt.Errorf("%w: endpoint region crashed", ErrNoRoute)
	}
	route, err := f.regionRoute(rs, rd)
	if err != nil {
		return nil, err
	}
	sp, err := f.stitchAlong(ctx, route, src, dst, opts)
	if err != nil {
		return nil, err
	}
	span.Annotatef("stitched", "%d segment(s), %d crossing(s), %.2f ms", len(sp.Segments), sp.Crossings, sp.LatencyMs)
	return sp, nil
}

// regionRoute BFSes the region adjacency graph from rs to rd over live
// regions, returning the region sequence. Deterministic: neighbors are
// explored in ascending region id.
func (f *Fabric) regionRoute(rs, rd int) ([]int, error) {
	if rs == rd {
		return []int{rs}, nil
	}
	prev := make([]int, len(f.regions))
	for i := range prev {
		prev[i] = -1
	}
	prev[rs] = rs
	queue := []int{rs}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for q := 0; q < len(f.regions); q++ {
			if q == r || prev[q] != -1 || f.regions[q].crashed || !f.part.Adjacent(r, q) {
				continue
			}
			prev[q] = r
			if q == rd {
				var route []int
				for at := rd; ; at = prev[at] {
					route = append(route, at)
					if at == rs {
						break
					}
				}
				for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
					route[i], route[j] = route[j], route[i]
				}
				return route, nil
			}
			queue = append(queue, q)
		}
	}
	return nil, fmt.Errorf("%w: regions %d and %d disconnected (live regions)", ErrNoRoute, rs, rd)
}

// maxBorderCandidates bounds the border IXPs tried per region crossing
// during stitching (highest degree first).
const maxBorderCandidates = 3

// borderCandidates returns the border IXPs (global ids) usable for the
// crossing between regions r and q: shared, not known-down on either side,
// highest degree first (ties: lower id), capped at maxBorderCandidates. The
// pair's list is ranked once at boot, so liveness only filters it.
func (f *Fabric) borderCandidates(r, q int) []int32 {
	cands := make([]int32, 0, maxBorderCandidates)
	for _, b := range f.ranked[r*len(f.regions)+q] {
		if len(cands) == maxBorderCandidates {
			break
		}
		if !f.borderDown(r, b) && !f.borderDown(q, b) {
			cands = append(cands, b)
		}
	}
	return cands
}

// borderDown reports whether border broker b (global id) is known down in
// region home: directly from the plane when home is local knowledge, or
// from the latest gossip digest a peer pushed about home.
func (f *Fabric) borderDown(home int, b int32) bool {
	reg := f.regions[home]
	if reg.crashed {
		return true
	}
	if l, ok := reg.Local(b); ok && reg.Plane.Crashed(l) {
		return true
	}
	// Cross-check every live peer's gossip digest about home.
	for q, peer := range f.regions {
		if q == home || peer.crashed {
			continue
		}
		if d := peer.peers[home]; d != nil && d.borderDown[b] {
			return true
		}
	}
	return false
}

// segQuery asks region r's query plane for a path between two region-local
// endpoints, translating shed backpressure into a ShedError.
func (f *Fabric) segQuery(ctx context.Context, r int, src, dst int32, opts routing.Options) (*routing.Path, error) {
	reg := f.regions[r]
	p, _, err := reg.QP.Query(ctx, int(src), int(dst), opts)
	if err != nil {
		if errors.Is(err, queryplane.ErrShed) {
			return nil, &ShedError{Region: r, RetryAfter: reg.QP.RetryAfter()}
		}
		return nil, err
	}
	return p, nil
}

// stitchAlong runs the entry/exit dynamic program over the region route:
// state = (region index, entry border IXP), transitions pick the exit
// border for the next crossing, cost = segment latency + crossing cost.
func (f *Fabric) stitchAlong(ctx context.Context, route []int, src, dst int32, opts routing.Options) (*StitchedPath, error) {
	type state struct {
		cost float64
		seg  *routing.Path // region-local path for this region's segment
		prev int           // index of predecessor entry candidate
	}
	// entries[i] = candidate entry nodes (global) for region route[i].
	entries := [][]int32{{src}}
	layers := make([][]state, len(route))
	layers[0] = []state{{cost: 0, prev: -1}}

	for i := 0; i < len(route); i++ {
		r := route[i]
		reg := f.regions[r]
		var exits []int32
		if i == len(route)-1 {
			exits = []int32{dst}
		} else {
			exits = f.borderCandidates(r, route[i+1])
			if len(exits) == 0 {
				return nil, fmt.Errorf("%w: no live border IXP between regions %d and %d", ErrNoRoute, r, route[i+1])
			}
		}
		next := make([]state, len(exits))
		for x := range next {
			next[x] = state{cost: math.Inf(1), prev: -1}
		}
		for e, entryG := range entries[i] {
			if i > 0 && math.IsInf(layers[i][e].cost, 1) {
				continue // entry candidate unreachable
			}
			entryL, ok := reg.Local(entryG)
			if !ok {
				continue
			}
			for x, exitG := range exits {
				exitL, ok := reg.Local(exitG)
				if !ok {
					continue
				}
				var segLat float64
				var seg *routing.Path
				if entryL != exitL {
					p, err := f.segQuery(ctx, r, entryL, exitL, opts)
					if err != nil {
						var shed *ShedError
						if errors.As(err, &shed) {
							return nil, err // backpressure propagates immediately
						}
						continue // this (entry, exit) pair is unroutable
					}
					seg, segLat = p, p.Latency
				}
				cost := layers[i][e].cost + segLat
				if i < len(route)-1 {
					cost += f.cfg.CrossingCostMs
				}
				if cost < next[x].cost {
					next[x] = state{cost: cost, seg: seg, prev: e}
				}
			}
		}
		if i == len(route)-1 {
			layers = append(layers, next) // final layer holds dst
		} else {
			entries = append(entries, exits)
			layers[i+1] = next
		}
	}

	final := layers[len(layers)-1][0]
	if math.IsInf(final.cost, 1) || (final.prev == -1 && len(route) > 1) {
		return nil, fmt.Errorf("%w: no feasible segment chain", ErrNoRoute)
	}

	// Reconstruct segments back to front: the state at region i+1's entry
	// layer carries region i's segment and the entry-candidate index used.
	segs := make([]Segment, len(route))
	at := final
	for i := len(route) - 1; i >= 0; i-- {
		r := route[i]
		reg := f.regions[r]
		var nodes []int32
		var lat float64
		if at.seg != nil {
			nodes = reg.GlobalPath(at.seg.Nodes)
			lat = at.seg.Latency
		} else {
			// Zero-length segment: the path enters and leaves region r at
			// the same node (a border IXP, or src==dst).
			nodes = []int32{entries[i][at.prev]}
		}
		segs[i] = Segment{Region: r, Nodes: nodes, LatencyMs: lat}
		if i > 0 {
			at = layers[i][at.prev]
		}
	}

	sp := &StitchedPath{Segments: segs, Crossings: len(route) - 1}
	for _, s := range segs {
		sp.LatencyMs += s.LatencyMs
	}
	sp.LatencyMs += float64(sp.Crossings) * f.cfg.CrossingCostMs
	for i, s := range segs {
		ns := s.Nodes
		if i > 0 && len(ns) > 0 && len(sp.Nodes) > 0 && sp.Nodes[len(sp.Nodes)-1] == ns[0] {
			ns = ns[1:] // dedupe the shared border joint
		}
		sp.Nodes = append(sp.Nodes, ns...)
	}
	return sp, nil
}
