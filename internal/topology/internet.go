package topology

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"brokerset/internal/graph"
)

// Full-scale calibration targets, taken from the paper's Table 2 and §3.
const (
	fullASes           = 51757
	fullIXPs           = 322
	fullASASEdges      = 347332
	fullIXPMemberships = 55282
	// ixpASFraction is the share of ASes with at least one IXP membership
	// ("only 40.2 percent ASes are directly connected to IXPs").
	ixpASFraction = 0.402
	// offGridFraction controls the small population outside the giant
	// component (52,079 total vs 51,895 in the giant component).
	offGridFraction = 0.0035
	// flatProviderShare is the fraction of edge-network transit contracts
	// signed with uniformly chosen regional ISPs rather than with the
	// preferential mega-hubs; it calibrates the k=100 coverage and the
	// complete dominating-set size simultaneously (see DESIGN.md).
	flatProviderShare = 0.5
	// tournamentSize is the number of degree-proportional candidates the
	// preferential branch compares; larger values concentrate contracts on
	// the very largest hubs (heavier distribution head).
	tournamentSize = 4
)

// InternetConfig parameterizes the synthetic Internet generator.
type InternetConfig struct {
	// Scale shrinks or grows the topology relative to the paper's dataset
	// (1.0 reproduces the 52,079-node scale). Must be > 0.
	Scale float64
	// Seed drives all randomness; equal seeds give identical topologies.
	Seed int64
}

// GenerateInternet builds a synthetic AS/IXP topology calibrated to the
// paper's 2014 dataset: a multi-tier customer-provider hierarchy with a
// tier-1 peering clique, preferential-attachment densification (scale-free
// degrees), IXPs with Zipf-distributed membership sizes covering ~40% of
// ASes, and a small off-grid population outside the giant component.
func GenerateInternet(cfg InternetConfig) (*Topology, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("topology: scale must be > 0, got %f", cfg.Scale)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nAS := scaleCount(fullASes, cfg.Scale, 60)
	nIXP := scaleCount(fullIXPs, cfg.Scale, 4)
	targetASEdges := scaleCount(fullASASEdges, cfg.Scale, 3*nAS/2)
	targetMemberships := scaleCount(fullIXPMemberships, cfg.Scale, nIXP)
	n := nAS + nIXP

	t := &Topology{
		Class: make([]Class, n),
		Tier:  make([]uint8, n),
		Name:  make([]string, n),
	}

	// --- Class and tier assignment over AS ids [0, nAS). Lower ids are
	// generated "earlier" and therefore accumulate degree, matching the
	// age-degree correlation of the real AS graph.
	nT1 := clampInt(int(math.Round(15*math.Sqrt(cfg.Scale))), 5, 20)
	if nT1 > nAS/4 {
		nT1 = nAS / 4
	}
	nTransit := nT1 + int(float64(nAS)*0.08)
	nContent := nTransit + int(float64(nAS)*0.05)
	nAccess := nContent + int(float64(nAS)*0.25)
	for u := 0; u < nAS; u++ {
		switch {
		case u < nT1:
			t.Class[u], t.Tier[u] = ClassTier1, 1
		case u < nTransit:
			t.Class[u], t.Tier[u] = ClassTransit, 2
		case u < nContent:
			t.Class[u], t.Tier[u] = ClassContent, 3
		case u < nAccess:
			t.Class[u], t.Tier[u] = ClassAccess, 3
		default:
			t.Class[u], t.Tier[u] = ClassEnterprise, 3
		}
		t.Name[u] = "AS" + strconv.Itoa(1000+u)
	}
	for i := 0; i < nIXP; i++ {
		u := nAS + i
		t.Class[u], t.Tier[u] = ClassIXP, 0
		t.Name[u] = fmt.Sprintf("IXP %s", ixpName(i))
	}

	b := graph.NewBuilder(n)
	b.Grow(targetASEdges + targetMemberships)
	deg := make([]int, n)
	// endpoints implements degree-preferential sampling: each added edge
	// appends both endpoints, so a uniform draw is degree-proportional.
	endpoints := make([]int32, 0, 2*(targetASEdges+targetMemberships))
	// seen is the throw-away duplicate check.
	seen := newEdgeSet(targetASEdges + targetMemberships)
	addEdge := func(u, v int, rel Relationship) bool {
		if u == v || !seen.add(u, v) {
			return false
		}
		addRel(b, u, v, rel)
		deg[u]++
		deg[v]++
		endpoints = append(endpoints, int32(u), int32(v))
		return true
	}

	// --- Tier-1 backbone: full peering clique.
	for u := 0; u < nT1; u++ {
		for v := u + 1; v < nT1; v++ {
			addEdge(u, v, RelPeer)
		}
	}

	// --- Customer-provider attachment. Two preferential pools reflect the
	// routing hierarchy: upstreamEnds (tier-1 + transit) serves transit and
	// content networks, while edge networks buy from regional transit only
	// (t2Ends) — real stubs rarely hold direct tier-1 contracts, which is
	// also what keeps the Tier1-Only baseline weak, as in the paper.
	upstreamEnds := make([]int32, 0, 4*nTransit)
	t2Ends := make([]int32, 0, 4*nTransit)
	for u := 0; u < nT1; u++ {
		for i := 0; i < nT1-1; i++ {
			upstreamEnds = append(upstreamEnds, int32(u))
		}
	}
	offGrid := make([]bool, n)
	var prevOffGrid = -1
	for u := nT1; u < nAS; u++ {
		// A small fraction of enterprise edge networks stay off the main
		// grid, pairing up among themselves (Table 2's nodes outside the
		// giant component).
		if t.Class[u] == ClassEnterprise && rng.Float64() < offGridFraction {
			offGrid[u] = true
			if prevOffGrid >= 0 {
				addEdge(u, prevOffGrid, RelPeer)
				prevOffGrid = -1
			} else {
				prevOffGrid = u
			}
			continue
		}
		providers := providerCount(t.Class[u], rng)
		pool := t2Ends
		isEdgeNet := true
		if t.Class[u] == ClassTransit || t.Class[u] == ClassContent {
			pool = upstreamEnds
			isEdgeNet = false
		}
		if len(pool) == 0 {
			pool = upstreamEnds // before any transit AS exists
		}
		chosen := make(map[int32]bool, providers)
		for tries := 0; len(chosen) < providers && tries < 20*providers; tries++ {
			// The transit market is two-tier. Most contracts concentrate on
			// the largest providers — tournament-of-two over the
			// degree-proportional pool gives that super-linear preference
			// (real AS degree power-law exponent ~2.1). But a flat share of
			// edge-network contracts goes to small regional ISPs chosen
			// uniformly, producing the long tail of low-degree providers
			// that makes full domination need thousands of brokers.
			var p int32
			if isEdgeNet && rng.Float64() < flatProviderShare && nTransit > nT1 {
				p = int32(nT1 + rng.Intn(nTransit-nT1))
			} else {
				p = pool[rng.Intn(len(pool))]
				for c := 1; c < tournamentSize; c++ {
					if q := pool[rng.Intn(len(pool))]; deg[q] > deg[p] {
						p = q
					}
				}
			}
			if int(p) == u || chosen[p] {
				continue
			}
			chosen[p] = true
			addEdge(u, int(p), RelCustomer) // u is the customer of p
			if t.Tier[p] != 1 {
				t2Ends = append(t2Ends, p)
			}
			upstreamEnds = append(upstreamEnds, p)
		}
		if t.Class[u] == ClassTransit {
			upstreamEnds = append(upstreamEnds, int32(u), int32(u))
			t2Ends = append(t2Ends, int32(u), int32(u))
		}
	}

	// --- Peering densification up to the AS-AS edge target. Content
	// providers peer disproportionately widely, so they enter the pool
	// with a bonus; tier-1 networks follow restrictive peering policies
	// (they peer only inside the backbone clique), so they are excluded.
	for u := nTransit; u < nContent; u++ {
		endpoints = append(endpoints, int32(u), int32(u), int32(u))
	}
	asEdges := seen.len()
	for tries := 0; asEdges < targetASEdges && tries < 50*targetASEdges; tries++ {
		u := int(endpoints[rng.Intn(len(endpoints))])
		v := int(endpoints[rng.Intn(len(endpoints))])
		if u >= nAS || v >= nAS || offGrid[u] || offGrid[v] {
			continue
		}
		if t.Tier[u] == 1 || t.Tier[v] == 1 {
			continue
		}
		if addEdge(u, v, RelPeer) {
			asEdges++
		}
	}

	// --- IXP memberships. Sizes follow a truncated Zipf; the member pool
	// covers ~40% of ASes, biased toward high-degree networks.
	memberPool := samplePreferential(endpoints, int(float64(nAS)*ixpASFraction), nAS, offGrid, rng)
	if len(memberPool) > 0 && nIXP > 0 {
		slots := membershipSlots(memberPool, targetMemberships, rng)
		ixpWeights := zipfWeights(nIXP, 0.75)
		for i, as := range memberPool {
			k := slots[i]
			seen := make(map[int]bool, k)
			for tries := 0; len(seen) < k && tries < 30*k; tries++ {
				ix := nAS + weightedIndex(ixpWeights, rng)
				if seen[ix] {
					continue
				}
				seen[ix] = true
				addEdge(int(as), ix, RelMember)
			}
		}
	}
	// Every IXP needs at least one member to exist meaningfully.
	for i := 0; i < nIXP; i++ {
		ix := nAS + i
		if deg[ix] == 0 && len(memberPool) > 0 {
			addEdge(int(memberPool[rng.Intn(len(memberPool))]), ix, RelMember)
		}
	}

	if err := t.build(b); err != nil {
		return nil, fmt.Errorf("topology: building internet graph: %w", err)
	}
	return t, nil
}

func scaleCount(full int, scale float64, min int) int {
	v := int(math.Round(float64(full) * scale))
	if v < min {
		return min
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func providerCount(c Class, rng *rand.Rand) int {
	switch c {
	case ClassTransit:
		return 2 + rng.Intn(3) // 2-4
	case ClassContent:
		return 2 + rng.Intn(2) // 2-3
	case ClassAccess:
		return 1 + rng.Intn(3) // 1-3
	default:
		return 1 + rng.Intn(2) // 1-2
	}
}

// samplePreferential draws k distinct AS ids (< nAS, not off-grid) from the
// degree-proportional endpoints pool, topping up uniformly if the pool is
// too concentrated to yield k distinct values.
func samplePreferential(endpoints []int32, k, nAS int, offGrid []bool, rng *rand.Rand) []int32 {
	if k <= 0 || len(endpoints) == 0 {
		return nil
	}
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for tries := 0; len(out) < k && tries < 40*k; tries++ {
		v := endpoints[rng.Intn(len(endpoints))]
		if int(v) >= nAS || seen[v] || offGrid[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	for u := 0; len(out) < k && u < nAS; u++ {
		if !seen[int32(u)] && !offGrid[u] {
			seen[int32(u)] = true
			out = append(out, int32(u))
		}
	}
	return out
}

// membershipSlots distributes `total` membership slots over the pool: one
// each, extras proportional to pool order (earlier = higher degree), capped.
func membershipSlots(pool []int32, total int, rng *rand.Rand) []int {
	slots := make([]int, len(pool))
	for i := range slots {
		slots[i] = 1
	}
	extra := total - len(pool)
	const maxPer = 40
	for e := 0; e < extra; e++ {
		// Bias extra memberships toward the front of the pool (high-degree
		// networks join many IXPs) with a squared-uniform index.
		f := rng.Float64()
		i := int(f * f * float64(len(pool)))
		if i >= len(pool) {
			i = len(pool) - 1
		}
		if slots[i] < maxPer {
			slots[i]++
		}
	}
	return slots
}

func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

func weightedIndex(w []float64, rng *rand.Rand) int {
	r := rng.Float64()
	for i, v := range w {
		r -= v
		if r < 0 {
			return i
		}
	}
	return len(w) - 1
}

var ixpCities = [...]string{
	"Frankfurt", "Amsterdam", "London", "Palo Alto", "Chicago", "Tokyo",
	"Singapore", "Hong Kong", "Sydney", "Sao Paulo", "Moscow", "Paris",
	"Stockholm", "Vienna", "Prague", "Warsaw", "Milan", "Madrid", "Seattle",
	"Ashburn", "Dallas", "Toronto", "Johannesburg", "Nairobi", "Mumbai",
	"Seoul", "Dubai", "Zurich", "Brussels", "Copenhagen", "Oslo", "Helsinki",
}

func ixpName(i int) string {
	city := ixpCities[i%len(ixpCities)]
	gen := i/len(ixpCities) + 1
	if gen == 1 {
		return fmt.Sprintf("SynthIX %s", city)
	}
	return fmt.Sprintf("SynthIX %s-%d", city, gen)
}
