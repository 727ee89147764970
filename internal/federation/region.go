package federation

import (
	"context"
	"fmt"
	"sort"

	"brokerset/internal/broker"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/epoch"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// Region is one federated broker coalition: a region subtopology (home
// members plus the border IXPs it shares with neighbors), its own broker
// set, metric assignment, 2PC control plane, epoch-snapshot publisher, and
// query plane. Node ids inside a Region are region-local; Orig maps them
// back to the global topology.
type Region struct {
	ID   int
	Top  *topology.Topology
	Orig []int32 // local -> global node id

	Metrics *routing.Metrics
	Plane   *ctrlplane.Plane
	Pub     *epoch.Publisher
	QP      *queryplane.QueryPlane

	// Brokers is the region's coalition in local ids (ascending); it always
	// includes every border IXP the region touches, so stitch points are
	// broker-owned on both sides.
	Brokers []int32
	// borderLocal are the region's border IXPs in local ids (ascending).
	borderLocal []int32

	g2l         map[int32]int32
	lastVersion uint64
}

// buildRegion boots region r's full coalition stack from the global
// topology and metric assignment.
func buildRegion(top *topology.Topology, part *topology.RegionPartition, r int, global *routing.Metrics, cfg Config) (*Region, error) {
	sub, orig, arcOrig := part.Subtopology(r)
	g2l := make(map[int32]int32, len(orig))
	for l, g := range orig {
		g2l[g] = int32(l)
	}

	// The region's metrics mirror the global assignment arc for arc, so a
	// segment latency quoted by any region agrees with the global truth.
	metrics := routing.NewSubMetrics(sub, arcOrig, global)

	var brokers []int32
	var err error
	if cfg.BrokerBudget > 0 {
		brokers, err = broker.MaxSG(sub.Graph, cfg.BrokerBudget)
	} else {
		brokers, err = broker.MaxSGComplete(sub.Graph)
	}
	if err != nil {
		return nil, fmt.Errorf("broker selection: %w", err)
	}

	// Force every border IXP this region touches into the coalition: a
	// stitched path hands over at a border broker, so both sides must own it.
	inB := make(map[int32]bool, len(brokers))
	for _, b := range brokers {
		inB[b] = true
	}
	var borderLocal []int32
	for _, g := range part.BorderIXPs() {
		l, ok := g2l[g]
		if !ok {
			continue
		}
		borderLocal = append(borderLocal, l)
		if !inB[l] {
			inB[l] = true
			brokers = append(brokers, l)
		}
	}
	sort.Slice(brokers, func(i, j int) bool { return brokers[i] < brokers[j] })
	sort.Slice(borderLocal, func(i, j int) bool { return borderLocal[i] < borderLocal[j] })

	plane := ctrlplane.New(sub, metrics, brokers)
	plane.SetRetryConfig(cfg.Retry)

	snap := epoch.NewSnapshot(epoch.SnapshotData{
		Top: sub, Live: sub.Graph, Brokers: brokers,
		View: metrics.View(), Region: r, Orig: orig,
	})
	pub := epoch.NewPublisher(snap)

	qp, err := queryplane.New(queryplane.Config{
		Compute: func(ctx context.Context, src, dst int, opts routing.Options) (*routing.Path, error) {
			return pub.Current().BestPath(src, dst, opts)
		},
		Generation: pub.Epoch,
		Revalidate: func(p *routing.Path, opts routing.Options, gen uint64) bool {
			return pub.Current().PathValid(p, opts)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("query plane: %w", err)
	}

	reg := &Region{
		ID: r, Top: sub, Orig: orig, g2l: g2l,
		Metrics: metrics, Plane: plane, Pub: pub, QP: qp,
		Brokers: brokers, borderLocal: borderLocal,
		lastVersion: plane.Version(),
	}
	reg.maybePublish(context.Background())
	return reg, nil
}

// Local translates a global node id to this region's local id; ok is false
// when the node is outside the region subtopology.
func (reg *Region) Local(g int32) (int32, bool) {
	l, ok := reg.g2l[g]
	return l, ok
}

// Global translates a region-local node id to the global topology's id.
func (reg *Region) Global(l int32) int32 { return reg.Orig[l] }

// GlobalPath translates a region-local path to global ids.
func (reg *Region) GlobalPath(local []int32) []int32 {
	out := make([]int32, len(local))
	for i, l := range local {
		out[i] = reg.Orig[l]
	}
	return out
}

// BorderIXPs returns the region's border IXPs in local ids.
func (reg *Region) BorderIXPs() []int32 { return reg.borderLocal }

// maybePublish republishes the region snapshot when the control plane has
// mutated reservation state since the last publish, bumping the region
// epoch so query-plane caches revalidate.
func (reg *Region) maybePublish(ctx context.Context) {
	v := reg.Plane.Version()
	if v == reg.lastVersion {
		return
	}
	reg.lastVersion = v
	// Only reservations change after boot (the region graph and coalition
	// are fixed), so the successor shares everything but the view.
	reg.Pub.Publish(ctx, reg.Pub.Current().WithView(reg.Metrics.View()))
}
