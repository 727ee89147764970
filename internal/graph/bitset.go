package graph

import "math/bits"

// Bitset is a dense fixed-capacity bit vector used by the bit-packed
// traversal kernels and the coverage machinery. Operations that combine two
// sets (Or, AndNot, ...) work a 64-bit word at a time, which is what makes
// frontier bookkeeping at paper scale (52k–520k nodes) cheap: one machine
// word covers 64 nodes.
//
// A Bitset does not remember its logical length; callers size them with
// NewBitset(n) over the same universe and never mix sizes.
type Bitset []uint64

// NewBitset returns a zeroed bitset with capacity for n bits.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)>>6)
}

// Set sets bit i.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitset) Clear(i int32) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// TestAndSet sets bit i and reports whether it was previously clear.
func (b Bitset) TestAndSet(i int32) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// Zero clears every bit. O(words), word-parallel.
func (b Bitset) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// ClaimNew computes cand &^ b (the bits of cand not yet in b), writes them
// into dst, and merges them into b — the word-parallel "frontier admission"
// step of bit-packed BFS: dst = new frontier, b = visited. It returns the
// number of newly claimed bits.
func (b Bitset) ClaimNew(cand, dst Bitset) int {
	claimed := 0
	for i, w := range cand {
		nw := w &^ b[i]
		dst[i] = nw
		b[i] |= nw
		claimed += bits.OnesCount64(nw)
	}
	return claimed
}

// ForEach calls fn for every set bit in ascending order.
func (b Bitset) ForEach(fn func(i int32)) {
	for wi, w := range b {
		base := int32(wi << 6)
		for w != 0 {
			fn(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// AppendBits appends the indices of all set bits to out in ascending order
// and returns the extended slice.
func (b Bitset) AppendBits(out []int32) []int32 {
	for wi, w := range b {
		base := int32(wi << 6)
		for w != 0 {
			out = append(out, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// SetAll sets every listed bit.
func (b Bitset) SetAll(ids []int32) {
	for _, i := range ids {
		b.Set(i)
	}
}
