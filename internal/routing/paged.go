package routing

// paged is an array held as a persistent radix tree, built for the columns
// of arcState that change on every commit: the per-link reservations and
// the per-arc room classes they keep current. The write pattern there is
// extreme: every committed setup/teardown mutates a handful of entries, and
// every snapshot publish needs an immutable capture of the whole column. The
// tree makes both cost what they touch, whatever the entry count:
//
//   - freeze is O(1): the frozen copy takes the current root and the writer
//     moves to the next edit generation. No loop, no allocation.
//   - A write walks root → interior → leaf and clones the nodes stamped with
//     an older generation — those a frozen copy may still reach — before
//     mutating; nodes it already owns are mutated in place. So the first
//     write to a leaf after a freeze copies ~1 KiB (leaf + interior, plus
//     the root table once per generation) and later ones copy nothing.
//   - A nil subtree reads as 0 and costs nothing: a fresh column is a root
//     table of nil pointers, and leaves appear where writes land.
//
// Frozen copies never mutate (generation 0 rejects writes), so any number of
// concurrent readers may hold them, same contract as a flat array.
type paged[T float64 | uint64] struct {
	// root has one interior node per radixFan² entries; it is itself cloned
	// on the first write of a generation (rootGen != gen).
	root         []*interior[T]
	gen, rootGen uint64
	n            int
}

// radixShift sizes leaves at 64 entries and interior nodes at 64 leaves
// (both ~0.5 KiB, the unit a first touch copies); the root table of the
// 402,225-link Table-2 reservation column is 99 pointers.
const (
	radixShift = 6
	radixFan   = 1 << radixShift
	radixMask  = radixFan - 1
)

// Both node kinds carry the generation that created them: a node whose
// stamp equals the writer's is reachable from no frozen copy.
type interior[T float64 | uint64] struct {
	gen  uint64
	kids [radixFan]*leaf[T]
}

type leaf[T float64 | uint64] struct {
	gen  uint64
	vals [radixFan]T
}

// newPaged returns a zeroed array of n entries holding no node.
func newPaged[T float64 | uint64](n int) paged[T] {
	return paged[T]{root: make([]*interior[T], (n+radixFan*radixFan-1)>>(2*radixShift)), gen: 1, rootGen: 1, n: n}
}

// pagedOf returns a column holding a copy of vals, every leaf allocated.
func pagedOf[T float64 | uint64](vals []T) paged[T] {
	p := newPaged[T](len(vals))
	for i := 0; i < len(vals); i += radixFan {
		copy(p.writable(i).vals[:], vals[i:])
	}
	return p
}

func (p *paged[T]) at(i int) T {
	if in := p.root[i>>(2*radixShift)]; in != nil {
		if l := in.kids[i>>radixShift&radixMask]; l != nil {
			return l.vals[i&radixMask]
		}
	}
	return 0
}

// writable returns the leaf holding entry i with every node on the way to
// it owned by the current generation, creating or cloning the ones that are
// not.
func (p *paged[T]) writable(i int) *leaf[T] {
	if p.gen == 0 {
		panic("routing: write to a frozen column")
	}
	if p.rootGen != p.gen {
		p.root, p.rootGen = append([]*interior[T](nil), p.root...), p.gen
	}
	slot, kid := i>>(2*radixShift), i>>radixShift&radixMask
	in := p.root[slot]
	if in == nil || in.gen != p.gen {
		fresh := &interior[T]{gen: p.gen}
		if in != nil {
			fresh.kids = in.kids
		}
		in = fresh
		p.root[slot] = in
	}
	l := in.kids[kid]
	if l == nil || l.gen != p.gen {
		fresh := &leaf[T]{gen: p.gen}
		if l != nil {
			fresh.vals = l.vals
		}
		l = fresh
		in.kids[kid] = l
	}
	return l
}

func (p *paged[T]) set(i int, v T) { p.writable(i).vals[i&radixMask] = v }

func (p *paged[T]) add(i int, d T) { p.writable(i).vals[i&radixMask] += d }

// freeze captures an immutable copy sharing the whole tree with the writer,
// whose next write to any node reachable from it clones that node first.
func (p *paged[T]) freeze() paged[T] {
	p.gen++
	return paged[T]{root: p.root, n: p.n}
}
