package routing

import (
	"math"
	"math/bits"

	"brokerset/internal/graph"
)

// sortedByLatency builds the order column for a latency column: every node's
// arc indexes in ascending latency.
func sortedByLatency(g *graph.Graph, latency []float64) []int32 {
	order := make([]int32, len(latency))
	var rs rowSorter
	for u := 0; u < g.NumNodes(); u++ {
		off := g.ArcOffset(u)
		rs.sort(order[off:off+g.Degree(u)], off, latency)
	}
	return order
}

// rowSorter sorts one node's row of the order column at a time; the zero
// value is ready, and holds the scratch it keeps between rows.
type rowSorter struct {
	keys  []uint64
	start []int32
}

// smallRow is the longest row the insertion pass takes as it comes. Dealing
// a dozen arcs into buckets first costs more than it saves: over the Table-2
// tier's 52,079 rows the column builds in 14.2 ms with the cut at 12 and
// 15.4 ms without one (four alternating runs each; 6 to 20 read the same).
const smallRow = 12

// sort fills row, the order column's slice for the node whose arcs start at
// off, with those arc indexes in ascending latency, ties by index.
//
// It is a bucket sort, because the column is built on every boot and once
// more per federation region: through a comparison callback the Table-2
// tier's 804k arcs take 48 ms, as packed integer keys under slices.Sort 26 ms,
// this way 14 ms. The bits of a non-negative float64 order as it does, so a
// row's d latencies are dealt, by the leading bits of their distance from the
// row's smallest, into between d and 2d buckets in one counting pass, and an
// insertion pass on the real values finishes the job — a step or two per
// arc for latencies spread like the generator's. Nothing depends on that
// spread, or on the sign: the insertion pass alone is a correct sort, only a
// quadratic one for a row whose latencies all fall into a few buckets.
func (rs *rowSorter) sort(row []int32, off int, latency []float64) {
	d := len(row)
	if d <= smallRow {
		for i := range row {
			row[i] = int32(off + i)
		}
	} else {
		if cap(rs.keys) < d {
			rs.keys = make([]uint64, d)
			rs.start = make([]int32, 2*d+1)
		}
		keys := rs.keys[:d]
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for i := range keys {
			k := math.Float64bits(latency[off+i])
			keys[i] = k
			lo, hi = min(lo, k), max(hi, k)
		}
		shift := max(0, bits.Len64(hi-lo)-bits.Len(uint(d)))
		// start[b+1] counts bucket b, then (summed) is where bucket b+1
		// starts — and, once the deal has advanced start[b] through bucket
		// b, where it ends.
		start := rs.start[:(hi-lo)>>shift+2]
		clear(start)
		for _, k := range keys {
			start[(k-lo)>>shift+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for i, k := range keys {
			b := (k - lo) >> shift
			row[start[b]] = int32(off + i)
			start[b]++
		}
	}
	for i := 1; i < d; i++ {
		a := row[i]
		j := i
		for ; j > 0 && (latency[row[j-1]] > latency[a] || (latency[row[j-1]] == latency[a] && row[j-1] > a)); j-- {
			row[j] = row[j-1]
		}
		row[j] = a
	}
}
