package federation

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// Golden hashes of the Table-2 boot, pinned before the topology's
// relationship labels moved from an edge-keyed map to an arc-aligned column:
// the generated graph, every per-arc relationship, the default metric
// assignment, and each region's subtopology, mirrored metrics and coalition
// are bit-identical whatever the labels are stored in.
const (
	goldenTable2Topology = 0x1123d6d5120899f5
	goldenTable2Metrics  = 0xf6845f0c026f9d35
)

var goldenTable2Regions = [3]uint64{0x961ac8fa8c0ab077, 0x54e9c01504deb70d, 0x011d1e5f83d7b5e1}

func hashInts(h hash.Hash64, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func hashFloat(h hash.Hash64, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}

// hashTopology folds adjacency, node labels and the relationship of every
// arc (from its tail's perspective) into h.
func hashTopology(h hash.Hash64, top *topology.Topology) {
	for u := 0; u < top.NumNodes(); u++ {
		hashInts(h, u, int(top.Class[u]), int(top.Tier[u]), top.Graph.Degree(u))
		h.Write([]byte(top.Name[u]))
		for _, v := range top.Graph.Neighbors(u) {
			hashInts(h, int(v), int(top.Rel(u, int(v))))
		}
	}
}

// hashMetrics folds every arc's latency and capacity into h.
func hashMetrics(h hash.Hash64, top *topology.Topology, m *routing.Metrics) {
	for u := 0; u < top.NumNodes(); u++ {
		for _, v := range top.Graph.Neighbors(u) {
			hashFloat(h, m.Latency(int32(u), v))
			hashFloat(h, m.Capacity(int32(u), v))
		}
	}
}

func TestTable2BootGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 52,079-node tier")
	}
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	hashTopology(h, top)
	if got := h.Sum64(); got != goldenTable2Topology {
		t.Errorf("table2 topology hash = %#x, want %#x", got, uint64(goldenTable2Topology))
	}

	metrics := routing.DefaultMetrics(top, nil)
	h = fnv.New64a()
	hashMetrics(h, top, metrics)
	if got := h.Sum64(); got != goldenTable2Metrics {
		t.Errorf("table2 default metrics hash = %#x, want %#x", got, uint64(goldenTable2Metrics))
	}

	f, err := New(top, Config{Regions: 3, BrokerBudget: 64, Seed: 1, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < f.NumRegions(); r++ {
		reg := f.Region(r)
		h = fnv.New64a()
		for _, g := range reg.Orig {
			hashInts(h, int(g))
		}
		hashTopology(h, reg.Top)
		hashMetrics(h, reg.Top, reg.Metrics)
		for _, b := range reg.Brokers {
			hashInts(h, int(b))
		}
		if got := h.Sum64(); got != goldenTable2Regions[r] {
			t.Errorf("region %d hash = %#x, want %#x", r, got, goldenTable2Regions[r])
		}
	}
}
