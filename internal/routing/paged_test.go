package routing

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"brokerset/internal/topology"
)

// frozenColumn is a frozen copy with the flat array it must read as forever.
type frozenColumn struct {
	col  paged[float64]
	want []float64
}

func (f *frozenColumn) check(t testing.TB, what string) {
	t.Helper()
	for i, w := range f.want {
		if got := f.col.at(i); got != w {
			t.Errorf("%s: entry %d of %d reads %v, flat copy taken at its freeze has %v", what, i, len(f.want), got, w)
			return
		}
	}
}

// keptFrozen is how many frozen copies a column script keeps alive at once.
const keptFrozen = 24

// runColumnScript interprets script against a fresh n-entry paged[float64] and a
// flat reference, four bytes an op: add, set, set to zero, an add on either
// side of a node boundary, or a freeze whose copy is handed to onFreeze with
// the flat copy taken at that moment. The last keptFrozen copies stay alive
// and every one is compared in full when it is evicted and at the end,
// after however many later writes the script holds; the writer is compared
// to the reference at every freeze and at the end.
func runColumnScript(t testing.TB, n int, script []byte, onFreeze func(frozenColumn)) {
	t.Helper()
	col, ref := newPaged[float64](n), make([]float64, n)
	if col.n != n {
		t.Fatalf("len %d, want %d", col.n, n)
	}
	var kept []frozenColumn
	freeze := func() {
		f := frozenColumn{col: col.freeze(), want: append([]float64(nil), ref...)}
		f.check(t, "fresh frozen copy")
		if onFreeze != nil {
			onFreeze(f)
		}
		if len(kept) == keptFrozen {
			kept[0].check(t, "evicted frozen copy")
			kept = kept[1:]
		}
		kept = append(kept, f)
	}
	for ; len(script) >= 4 && !t.Failed(); script = script[4:] {
		op, pos, val := script[0]%16, int(script[1])<<8|int(script[2]), float64(script[3])/8
		i := pos % n
		switch {
		case op < 6:
			col.add(i, val)
			ref[i] += val
		case op < 10:
			col.set(i, val)
			ref[i] = val
		case op < 12: // also into subtrees nothing has written yet
			col.set(i, 0)
			ref[i] = 0
		case op < 15: // the entries either side of a leaf (or interior) boundary
			width := radixFan
			if op == 14 {
				width = radixFan * radixFan
			}
			b := pos % (n/width + 1) * width
			for _, j := range [2]int{b - 1, b} {
				if j >= 0 && j < n {
					col.add(j, val)
					ref[j] += val
				}
			}
		default:
			freeze()
		}
	}
	freeze()
	for k := range kept {
		kept[k].check(t, "kept frozen copy")
	}
}

// columnSizes straddle every shape the tree has: one leaf, a leaf boundary,
// one interior node exactly, an interior boundary, and several root slots
// with a ragged last leaf.
var columnSizes = []int{1, radixFan - 1, radixFan, radixFan + 1, radixFan*radixFan - 1, radixFan * radixFan,
	radixFan*radixFan + 1, 3*radixFan*radixFan + 17}

func randomScript(seed int64, ops int) []byte {
	script := make([]byte, 4*ops)
	rand.New(rand.NewSource(seed)).Read(script)
	return script
}

// TestPagedColumnMatchesFlat is the column's property test: seeded random
// interleavings of add / set / freeze read the same as a flat []float64,
// and every frozen copy still equals the flat copy taken at its freeze
// thousands of writes later.
func TestPagedColumnMatchesFlat(t *testing.T) {
	for k, n := range columnSizes {
		runColumnScript(t, n, randomScript(int64(k+1), 6000), nil)
	}
	// Every leaf boundary of a multi-root column written in one generation
	// and again in the next, with the copy between them left intact.
	n := 2*radixFan*radixFan + 100
	col, ref := newPaged[float64](n), make([]float64, n)
	var frozen frozenColumn
	for round := 1; round <= 2; round++ {
		for b := radixFan; b < n; b += radixFan {
			col.add(b-1, float64(round))
			col.add(b, float64(2*round))
			ref[b-1] += float64(round)
			ref[b] += float64(2 * round)
		}
		if round == 1 {
			frozen = frozenColumn{col: col.freeze(), want: append([]float64(nil), ref...)}
		}
	}
	frozen.check(t, "copy frozen between two sweeps of every boundary")
	live := frozenColumn{col: col, want: ref}
	live.check(t, "writer after two sweeps")
	// A column built from a flat copy reads as that copy, and writes to it
	// leave a copy frozen before them alone.
	built := pagedOf(ref)
	frozen = frozenColumn{col: built.freeze(), want: slices.Clone(ref)}
	for i := range ref {
		built.add(i, 1)
		ref[i]++
	}
	frozen.check(t, "built column frozen before a write to every entry")
	live = frozenColumn{col: built, want: ref}
	live.check(t, "built column after a write to every entry")
}

// TestPagedColumnFrozenReadsRace runs the same scripts with four goroutines
// re-reading each frozen copy while the writer goes on cloning and mutating
// the tree those copies share; under -race an in-place write to a node a
// frozen copy can reach is a reported race, not just a wrong value.
func TestPagedColumnFrozenReadsRace(t *testing.T) {
	copies := make(chan frozenColumn)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var held []frozenColumn
			for f := range copies {
				held = append(held, f)
				for k := range held {
					held[k].check(t, "frozen copy read beside the writer")
				}
				if len(held) == 6 {
					held = held[1:]
				}
			}
		}()
	}
	for k, n := range columnSizes[4:] {
		runColumnScript(t, n, randomScript(int64(100+k), 1500), func(f frozenColumn) { copies <- f })
	}
	close(copies)
	readers.Wait()
}

// FuzzPagedColumn lets the fuzzer write the script.
func FuzzPagedColumn(f *testing.F) {
	f.Add(uint16(0), randomScript(1, 64))
	f.Add(uint16(radixFan*radixFan), randomScript(2, 256))
	f.Add(uint16(3*radixFan*radixFan+17), []byte{11, 0xff, 0xff, 0, 15, 0, 0, 0, 14, 0, 1, 9, 15, 0, 0, 0, 14, 0, 1, 9})
	f.Fuzz(func(t *testing.T, n uint16, script []byte) {
		runColumnScript(t, 1+int(n)%(4*radixFan*radixFan), script, nil)
	})
}

// leaves counts the leaves the column holds.
func (p *paged[T]) leaves() int {
	n := 0
	for _, in := range p.root {
		if in == nil {
			continue
		}
		for _, l := range in.kids {
			if l != nil {
				n++
			}
		}
	}
	return n
}

// TestFreshMetricsColumnIsSparse: the all-zero column new metrics start
// with holds no leaf — no memory, no boot time — until something reserves.
func TestFreshMetricsColumnIsSparse(t *testing.T) {
	top, m := diamondTopology(t)
	if got := blankMetrics(top).used.leaves(); got != 0 {
		t.Fatalf("blank metrics hold %d leaves", got)
	}
	if got := m.used.leaves(); got != 0 {
		t.Fatalf("metrics with latency and capacity assigned hold %d leaves before any Reserve", got)
	}
	view := m.View()
	if err := m.Reserve(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.used.leaves(); got != 1 {
		t.Fatalf("one Reserve on an 8-arc graph left %d leaves, want 1", got)
	}
	if got := view.used.leaves(); got != 0 {
		t.Fatalf("the view captured before the Reserve now holds %d leaves", got)
	}
}

// allocBytes is the mean bytes f allocates per call, the least of five
// readings of runs calls each. MemStats counts the whole process, so a
// reading can carry a stray allocation made elsewhere in it (the testing
// package's, the runtime's); one clean reading of the five is enough.
func allocBytes(runs int, f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

// TestViewCostIndependentOfArcs pins the property, not a number: capturing a
// View costs the same few words on a 5,000-node and on the 52,079-node
// graph, and the first write after a capture pays for the nodes it touches,
// not for the column — the root table, and one interior node and one leaf
// per touched link, whichever end the write names the link by.
func TestViewCostIndependentOfArcs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	tenth, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	table2, err := topology.GenerateTier("table2", 1)
	if err != nil {
		t.Fatal(err)
	}
	var sink *View
	var bytes [2]uint64
	for k, top := range []*topology.Topology{tenth, table2} {
		m := DefaultMetrics(top, nil)
		if allocs := testing.AllocsPerRun(100, func() { sink = m.View() }); allocs != 1 {
			t.Errorf("%d arcs: View() makes %.0f allocations, want the View alone", top.Graph.NumArcs(), allocs)
		}
		bytes[k] = allocBytes(100, func() { sink = m.View() })
	}
	if bytes[0] != bytes[1] || bytes[1] > 256 {
		t.Errorf("View() allocates %d B on %d arcs and %d B on %d: want equal and a handful of words",
			bytes[0], tenth.Graph.NumArcs(), bytes[1], table2.Graph.NumArcs())
	}
	_ = sink

	// Every leaf of the reservation column holds a reservation, so a write
	// that copied the column, flat or node by node, would pay for all of it.
	m := DefaultMetrics(table2, nil)
	var u, v int32
	links := 0
	table2.Graph.Edges(func(a, b int) bool {
		if links%radixFan == 0 {
			if err := m.Reserve(int32(a), int32(b), 0.001); err != nil {
				t.Fatal(err)
			}
		}
		links++
		u, v = int32(a), int32(b)
		return true
	})
	if got, want := m.used.leaves(), (links+radixFan-1)/radixFan; got != want {
		t.Fatalf("%d links reserved every %d hold %d leaves, want %d", links, radixFan, got, want)
	}
	// A reservation that keeps the link's residual inside its octave writes
	// used alone; one that takes it out, and the release that brings it
	// back, also write both arcs' room classes.
	l, a := linkArc(table2.Graph, u, v)
	lo := math.Ldexp(1, int(m.roomOf(a))-6) // the residual's class holds [lo, 2lo)
	cycle := func(gbps float64) func() {
		return func() {
			if err := m.Reserve(u, v, gbps); err != nil {
				t.Fatal(err)
			}
			m.Release(v, u, gbps)
		}
	}
	within, across := cycle((m.residual(l)-lo)/2), cycle(m.residual(l)-lo/2)
	// What a cycle may cost: each tree's root table, cloned once per
	// generation, and one interior node and one leaf per touched entry —
	// one link's reservation, and for a crossing two arcs' classes — with
	// the allocator's size-class rounding (under a quarter at these sizes)
	// and no more. A further leaf, or any copy of a column, is over.
	node := uint64(unsafe.Sizeof(interior[float64]{}) + unsafe.Sizeof(leaf[float64]{}))
	ptr := uint64(unsafe.Sizeof(m.used.root[0]))
	usedRoot, roomRoot := ptr*uint64(len(m.used.root)), ptr*uint64(len(m.room.root))
	for _, c := range []struct {
		name  string
		cycle func()
		want  uint64
	}{
		{"inside its octave", within, (usedRoot + node) * 5 / 4},
		{"across an octave", across, (usedRoot + roomRoot + 3*node) * 5 / 4},
	} {
		if got := allocBytes(50, func() { sink = m.View(); c.cycle() }) - bytes[1]; got > c.want {
			t.Errorf("Reserve+Release of one link %s after a freeze allocates %d B, want <= %d: root tables of %d and %d entries, %d B per interior node and leaf",
				c.name, got, c.want, len(m.used.root), len(m.room.root), node)
		}
		if got := allocBytes(50, c.cycle); got != 0 {
			t.Errorf("Reserve+Release of one link %s with no freeze since the last one allocates %d B, want 0 (nodes it owns are mutated in place)", c.name, got)
		}
	}
}
