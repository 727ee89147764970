package broker

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"brokerset/internal/graph"
)

func sameBrokers(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d brokers, want %d\n got  %v\n want %v", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: broker %d differs: got %d, want %d\n got  %v\n want %v",
				name, i, got[i], want[i], got, want)
		}
	}
}

// TestGreedyMCBParallelMatchesSerial pins the determinism contract: the
// parallel CELF loop must return the broker set bitwise-identical (same
// nodes, same selection order) to the serial schedule for every worker
// count, on every topology shape.
func TestGreedyMCBParallelMatchesSerial(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"star":     star(t, 64),
		"path":     path(t, 200),
		"er-small": randGraph(300, 900, 11),
		"er-dense": randGraph(500, 5000, 12),
		"internet": internetGraph(t, 0.05).Graph,
	}
	for name, g := range graphs {
		want, err := GreedyMCBParallel(g, 40, 1)
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		for _, workers := range []int{2, 3, 5, 8} {
			got, err := GreedyMCBParallel(g, 40, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			sameBrokers(t, fmt.Sprintf("GreedyMCB %s workers=%d", name, workers), got, want)
		}
	}
}

// TestMaxSGParallelMatchesSerial pins the same contract for Algorithm 3.
// MaxSG is the workers=1 case of the same body, so the independent side is
// maxSGReference, the quadratic transcription of the algorithm: the batched
// enqueue and refresh paths are cross-checked against a full rescan.
func TestMaxSGParallelMatchesSerial(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"star":     star(t, 64),
		"path":     path(t, 200),
		"er-small": randGraph(300, 900, 13),
		"er-dense": randGraph(500, 5000, 14),
		"internet": internetGraph(t, 0.05).Graph,
	}
	for name, g := range graphs {
		for _, k := range []int{5, 40, g.NumNodes()} {
			want, err := MaxSG(g, k)
			if err != nil {
				t.Fatalf("%s k=%d: serial: %v", name, k, err)
			}
			sameBrokers(t, fmt.Sprintf("MaxSG %s k=%d vs reference", name, k), want, maxSGReference(g, k))
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := MaxSGParallel(g, k, workers)
				if err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", name, k, workers, err)
				}
				sameBrokers(t, fmt.Sprintf("MaxSG %s k=%d workers=%d", name, k, workers), got, want)
			}
		}
	}
}

// TestParallelWorkerDefaults checks the workers<=0 ⇒ GOMAXPROCS path still
// returns the serial set.
func TestParallelWorkerDefaults(t *testing.T) {
	g := internetGraph(t, 0.05).Graph
	want, err := GreedyMCB(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedyMCBParallel(g, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameBrokers(t, "GreedyMCB workers=0", got, want)
	wantSG, err := MaxSG(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	gotSG, err := MaxSGParallel(g, 20, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameBrokers(t, "MaxSG workers=-1", gotSG, wantSG)
}

// TestGainQueueZeroAlloc pins the concrete-typed heap's no-boxing contract:
// steady-state push/pop cycles must not allocate.
func TestGainQueueZeroAlloc(t *testing.T) {
	pq := newGainQueue(1024)
	for i := 0; i < 1024; i++ {
		pq.bulkAppend(int32(i), i*7%97, 0)
	}
	pq.init()
	if avg := testing.AllocsPerRun(50, func() {
		it := pq.pop()
		pq.push(it.node, it.gain+1, it.round+1)
	}); avg != 0 {
		t.Fatalf("gainQueue steady-state allocates %.1f per cycle, want 0", avg)
	}
}

// TestGainQueueOrdering checks the (gain desc, node asc) total order that
// the determinism contract depends on, including the bulk-load + heapify
// path used by GreedyMCBParallel.
func TestGainQueueOrdering(t *testing.T) {
	pq := newGainQueue(0)
	items := []gainItem{
		{node: 5, gain: 3}, {node: 1, gain: 3}, {node: 9, gain: 7},
		{node: 2, gain: 1}, {node: 7, gain: 7}, {node: 0, gain: 3},
	}
	for _, it := range items {
		pq.bulkAppend(it.node, it.gain, 0)
	}
	pq.init()
	want := []gainItem{
		{node: 7, gain: 7}, {node: 9, gain: 7}, {node: 0, gain: 3},
		{node: 1, gain: 3}, {node: 5, gain: 3}, {node: 2, gain: 1},
	}
	for i, w := range want {
		got := pq.pop()
		if got.node != w.node || got.gain != w.gain {
			t.Fatalf("pop %d = (node %d, gain %d), want (node %d, gain %d)",
				i, got.node, got.gain, w.node, w.gain)
		}
	}
}

// TestParallelSpeedup measures the ≥4× speedup acceptance target for
// parallel CELF at 8 workers. It needs real cores to mean anything, so it
// skips (with the measured numbers logged) unless GOMAXPROCS ≥ 8 — the
// nightly selection-scale CI job runs it on a full-size runner.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := internetGraph(t, 0.5).Graph
	const k = 200
	time1 := bestOf(3, func() {
		if _, err := GreedyMCBParallel(g, k, 1); err != nil {
			t.Fatal(err)
		}
	})
	time8 := bestOf(3, func() {
		if _, err := GreedyMCBParallel(g, k, 8); err != nil {
			t.Fatal(err)
		}
	})
	speedup := float64(time1) / float64(time8)
	t.Logf("GreedyMCB k=%d: serial %v, 8 workers %v, speedup %.2fx", k, time1, time8, speedup)
	if runtime.GOMAXPROCS(0) < 8 {
		t.Skipf("GOMAXPROCS=%d < 8: speedup target not enforceable on this machine", runtime.GOMAXPROCS(0))
	}
	if speedup < 4 {
		t.Errorf("parallel CELF speedup %.2fx at 8 workers, want >= 4x", speedup)
	}
}

func bestOf(n int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
