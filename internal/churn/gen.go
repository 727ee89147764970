package churn

import (
	"fmt"
	"math"
	"math/rand"

	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// GenConfig parameterizes a churn generator.
type GenConfig struct {
	// Seed makes the stream deterministic.
	Seed int64
}

// The generator's Internet-flavoured mix: link flaps dominate, node and
// membership churn are rarer, broker failures rarer still.
const (
	// genRate is the Poisson mean of events per Tick.
	genRate = 4
	// linkWeight, nodeWeight, memberWeight and brokerWeight are the relative
	// odds of the four event families.
	linkWeight, nodeWeight, memberWeight, brokerWeight = 8.0, 1.0, 2.0, 1.0
	// recoverBias is the probability that a drawn event is a recovery of
	// previously-churned state rather than fresh damage, keeping long runs
	// near a churn equilibrium instead of grinding the topology to dust.
	recoverBias = 0.4
)

// Generator draws deterministic churn event streams against a live State:
// Poisson arrival counts per tick, and degree-biased targeting — fail
// targets are drawn by uniform arc sampling, so a link's (node's) odds of
// being named scale with how much adjacency it carries, matching the
// empirical bias of flap-heavy, well-connected infrastructure.
type Generator struct {
	st      *State
	rng     *rand.Rand
	brokers func() []int32 // live broker set, for BrokerFail targeting
	seq     int

	// memberLinks has one bit per AS–IXP membership link (graph.LinkOf
	// id), the static universe of membership events; members counts them.
	memberLinks graph.Bitset
	members     int
}

// NewGenerator builds a generator over st. brokers supplies the current
// coalition for broker-failure targeting (nil disables broker events).
func NewGenerator(st *State, brokers func() []int32, cfg GenConfig) *Generator {
	g := &Generator{
		st:      st,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		brokers: brokers,
	}
	gr := st.Topology().Graph
	rels := st.Topology().ArcRels()
	g.memberLinks = graph.NewBitset(gr.NumEdges())
	gr.Links(func(a, _, u, _ int) {
		if rels[a] == topology.RelMember {
			g.memberLinks.Set(int32(gr.LinkOfArc(u, a)))
			g.members++
		}
	})
	return g
}

// poisson draws a Poisson(mean) count (Knuth's product method; fine for the
// small means churn uses).
func (g *Generator) poisson(mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k // guard against pathological means
		}
	}
}

// randomLink samples a link with degree-biased endpoint odds: a uniform
// node-weighted-by-degree draw followed by a uniform neighbour draw.
func (g *Generator) randomLink() (int32, int32, bool) {
	gr := g.st.Topology().Graph
	if gr.NumArcs() == 0 {
		return 0, 0, false
	}
	arc := g.rng.Intn(gr.NumArcs())
	// Locate the arc's source node by scanning offsets via binary search on
	// ArcOffset; NumNodes is small enough that a linear fallback is fine,
	// but do the search properly.
	lo, hi := 0, gr.NumNodes()
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if gr.ArcOffset(mid) <= arc {
			lo = mid
		} else {
			hi = mid
		}
	}
	u := lo
	v := gr.Neighbors(u)[arc-gr.ArcOffset(u)]
	return int32(u), v, true
}

// Next draws one event. ok is false when the drawn family had no valid
// target (e.g. nothing to recover); callers just draw again or move on.
func (g *Generator) Next() (Event, bool) {
	total := linkWeight + nodeWeight + memberWeight + brokerWeight
	if g.brokers == nil {
		total -= brokerWeight
	}
	r := g.rng.Float64() * total
	recover := g.rng.Float64() < recoverBias
	var ev Event
	switch {
	case r < linkWeight:
		if recover {
			u, v, ok := g.downedLink()
			if !ok {
				return Event{}, false
			}
			ev = Event{Type: LinkRecover, U: u, V: v}
		} else {
			u, v, ok := g.randomLink()
			if !ok {
				return Event{}, false
			}
			ev = Event{Type: LinkFail, U: u, V: v}
		}
	case r < linkWeight+nodeWeight:
		if recover {
			u, ok := g.downedNode()
			if !ok {
				return Event{}, false
			}
			ev = Event{Type: NodeJoin, Node: u}
		} else {
			u, _, ok := g.randomLink() // degree-biased node draw (arc source)
			if !ok {
				return Event{}, false
			}
			ev = Event{Type: NodeLeave, Node: u}
		}
	case r < linkWeight+nodeWeight+memberWeight:
		if g.members == 0 {
			return Event{}, false
		}
		u, v := g.st.top.Graph.LinkEnds(int(g.memberLinks.Select(g.rng.Intn(g.members))))
		typ := MemberLeave
		if recover {
			typ = MemberJoin
		}
		ev = Event{Type: typ, U: int32(u), V: int32(v)}
	default:
		if recover {
			down := g.st.DownBrokers()
			if len(down) == 0 {
				return Event{}, false
			}
			ev = Event{Type: BrokerRecover, Node: down[g.rng.Intn(len(down))]}
		} else {
			bs := g.brokers()
			var alive []int32
			for _, b := range bs {
				if !g.st.BrokerDown(b) {
					alive = append(alive, b)
				}
			}
			if len(alive) == 0 {
				return Event{}, false
			}
			ev = Event{Type: BrokerFail, Node: alive[g.rng.Intn(len(alive))]}
		}
	}
	g.seq++
	ev.Seq = g.seq
	return ev, true
}

// downedLink picks a uniformly random individually-failed link: the k-th
// set down bit, so the draw follows ascending (u, v) order and the stream
// is deterministic.
func (g *Generator) downedLink() (int32, int32, bool) {
	if g.st.failedLinks == 0 {
		return 0, 0, false
	}
	l := g.st.linkDown.Select(g.rng.Intn(g.st.failedLinks))
	u, v := g.st.top.Graph.LinkEnds(int(l))
	return int32(u), int32(v), true
}

// downedNode picks a uniformly random departed node: the k-th set bit, so
// the draw follows ascending node order.
func (g *Generator) downedNode() (int32, bool) {
	if g.st.downNodes == 0 {
		return 0, false
	}
	return g.st.nodeDown.Select(g.rng.Intn(g.st.downNodes)), true
}

// Tick draws one Poisson-sized batch of events (possibly empty).
func (g *Generator) Tick() []Event {
	n := g.poisson(genRate)
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		if ev, ok := g.Next(); ok {
			out = append(out, ev)
		}
	}
	return out
}

// GenerateTrace draws exactly n events (skipping dry draws) — the
// convenient entry point for "give me a reproducible churn trace" uses like
// POST /churn {"generate": N}.
func (g *Generator) GenerateTrace(n int) ([]Event, error) {
	if n < 0 {
		return nil, fmt.Errorf("churn: trace length %d < 0", n)
	}
	out := make([]Event, 0, n)
	dry := 0
	for len(out) < n && dry < 16*n+64 {
		ev, ok := g.Next()
		if !ok {
			dry++
			continue
		}
		out = append(out, ev)
	}
	return out, nil
}
