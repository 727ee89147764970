package routing_test

import (
	"math"
	"testing"

	"brokerset/internal/epoch"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// TestCapacityIsPerLink pins the layout of the bandwidth columns: capacity
// and reservations hold one entry per link, NumEdges of them. So a Reserve
// naming a link by one end reads back naming it by the other — from the
// live metrics, from a View frozen after it (a View frozen before it keeps
// the old figure) and through an epoch snapshot's PathValid — and a
// SetCapacity from either end changes exactly one entry of the column.
func TestCapacityIsPerLink(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := top.Graph
	m := routing.DefaultMetrics(top, nil)
	if got := len(m.Capacities()); got != g.NumEdges() {
		t.Fatalf("capacity column has %d entries for %d links (%d arcs)", got, g.NumEdges(), g.NumArcs())
	}
	if got := routing.UsedEntries(m); got != g.NumEdges() {
		t.Fatalf("reservation column has %d entries for %d links (%d arcs)", got, g.NumEdges(), g.NumArcs())
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*max(1, math.Abs(b)) }
	checked := 0
	g.Edges(func(u, v int) bool {
		if checked++; checked%37 != 0 {
			return true
		}
		for _, e := range [][2]int32{{int32(u), int32(v)}, {int32(v), int32(u)}} {
			x, y := e[0], e[1]
			before := m.Available(y, x)
			frozen := m.View()
			bw := before / 4
			if err := m.Reserve(x, y, bw); err != nil {
				t.Fatal(err)
			}
			after := before - bw
			view := m.View()
			if got := m.Available(y, x); !near(got, after) {
				t.Fatalf("Reserve(%d,%d,%v) on %v Gbps: Available(%d,%d) reads %v, want %v", x, y, bw, before, y, x, got, after)
			}
			if got := view.Available(y, x); !near(got, after) {
				t.Fatalf("Reserve(%d,%d): a View frozen after it reads %v from (%d,%d), want %v", x, y, got, y, x, after)
			}
			if got := frozen.Available(y, x); got != before {
				t.Fatalf("Reserve(%d,%d): a View frozen before it reads %v from (%d,%d), want %v", x, y, got, y, x, before)
			}
			snap := epoch.NewSnapshot(epoch.SnapshotData{Top: top, Live: g, Brokers: []int32{min(x, y)}, View: view})
			hop := &routing.Path{Nodes: []int32{y, x}}
			if !snap.PathValid(hop, routing.Options{MinBandwidth: after * 0.999}) ||
				snap.PathValid(hop, routing.Options{MinBandwidth: after * 1.001}) {
				t.Fatalf("Reserve(%d,%d): PathValid over (%d,%d) does not read the %v Gbps left", x, y, y, x, after)
			}
			m.Release(y, x, bw)
			if got := m.Available(x, y); !near(got, before) {
				t.Fatalf("Release(%d,%d) after Reserve(%d,%d): %v Gbps, want %v back", y, x, x, y, got, before)
			}
		}
		old := append([]float64(nil), m.Capacities()...)
		m.SetCapacity(int32(v), int32(u), 123)
		l, changed := g.LinkOf(u, v), 0
		for i, c := range m.Capacities() {
			if c != old[i] {
				changed++
				if i != l {
					t.Fatalf("SetCapacity(%d,%d) wrote entry %d; the link's is %d", v, u, i, l)
				}
			}
		}
		if changed != 1 || m.Capacity(int32(u), int32(v)) != 123 {
			t.Fatalf("SetCapacity(%d,%d, 123) changed %d entries, Capacity(%d,%d) reads %v", v, u, changed, u, v, m.Capacity(int32(u), int32(v)))
		}
		return true
	})
	if checked < 37 {
		t.Fatalf("only %d links: nothing checked", checked)
	}
}
