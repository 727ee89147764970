package topology

import "math/bits"

// edgeSet is the generators' duplicate check: a set of undirected edges in a
// flat open-addressing table, sized once for the edges the generator expects
// to add so that no insert grows or rehashes it (it doubles if the estimate
// was short). A generator asks it once per candidate edge, and every probe is
// a cache miss — the table is megabytes and the candidates are random — so
// what a probe costs beyond that miss is what there is to save: as a Go
// map[uint64]struct{} the Table-2 generator read 125 ms, with this 100 ms
// (four alternating runs each, the rest of the generator as it is now).
type edgeSet struct {
	// slots holds packed edges, linearly probed from the key's hash; 0 is an
	// empty slot, which no edge packs to (the higher endpoint is at least 1).
	slots []uint64
	n     int
}

// newEdgeSet returns a set with room for expect edges at under half load.
func newEdgeSet(expect int) *edgeSet {
	return &edgeSet{slots: make([]uint64, 1<<bits.Len(uint(2*max(expect, 4))))}
}

// len returns the number of edges in the set.
func (s *edgeSet) len() int { return s.n }

// add puts the undirected edge (u,v), u != v, into the set and reports
// whether it was new.
func (s *edgeSet) add(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	key := uint64(uint32(u))<<32 | uint64(uint32(v))
	if !s.insert(key) {
		return false
	}
	if s.n++; 2*s.n > len(s.slots) {
		old := s.slots
		s.slots = make([]uint64, 2*len(old))
		for _, k := range old {
			if k != 0 {
				s.insert(k)
			}
		}
	}
	return true
}

// insert places key unless it is present, reporting whether it did.
func (s *edgeSet) insert(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: the product's high bits mix both endpoints.
	for i := (key * 0x9E3779B97F4A7C15) >> (64 - bits.Len64(mask)); ; i++ {
		switch s.slots[i&mask] {
		case key:
			return false
		case 0:
			s.slots[i&mask] = key
			return true
		}
	}
}
