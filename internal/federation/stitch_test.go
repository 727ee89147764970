package federation

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// regionCounts snapshots every region query plane's miss count and resident
// entries: a search adds a miss (Query) or at least an entry (Resolve).
func regionCounts(f *Fabric) (misses []uint64, entries []int) {
	for r := 0; r < f.NumRegions(); r++ {
		st := f.Region(r).QP.Stats()
		misses, entries = append(misses, st.Misses), append(entries, st.CacheEntries)
	}
	return misses, entries
}

// TestSetupSearchesNothingTheStitchFound: a federated session is searched
// for once. The read's cold stitch computes and caches every segment; the
// Setup that follows raises the bandwidth floor, which is answered through
// those entries, and each transit region's sub-prepare resolves its segment
// through the same query plane — no region, transit included, computes a
// path during the setup.
func TestSetupSearchesNothingTheStitchFound(t *testing.T) {
	f := fedFabric(t, 4, 2, Config{Seed: 7})
	ctx := context.Background()
	src, dst := int32(2), int32(10) // as(0,2) -> as(2,2): crosses 0->1->2
	sp, err := f.StitchPath(ctx, src, dst, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Crossings != 2 {
		t.Fatalf("%d crossings, want 2", sp.Crossings)
	}
	misses0, entries0 := regionCounts(f)
	s, err := f.Setup(ctx, src, dst, 5, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	misses1, entries1 := regionCounts(f)
	for r := range misses0 {
		if misses1[r] != misses0[r] || entries1[r] != entries0[r] {
			t.Errorf("region %d: setup added %d misses and %d cache entries, want none",
				r, misses1[r]-misses0[r], entries1[r]-entries0[r])
		}
		if f.Region(r).QP.Stats().HitsDominated == 0 {
			t.Errorf("region %d: no constrained query was answered through the cached optimum", r)
		}
	}
	if !slices.Equal(s.Stitched.Nodes, sp.Nodes) {
		t.Errorf("setup reserved %v, the read quoted %v", s.Stitched.Nodes, sp.Nodes)
	}
	if err := f.Teardown(ctx, s); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSetupRestitchesAroundSaturatedSegment: when the cached optimum no
// longer has the bandwidth, the constrained query is computed in its own
// right and the setup routes around the full links instead of aborting.
func TestSetupRestitchesAroundSaturatedSegment(t *testing.T) {
	f := fedFabric(t, 4, 2, Config{Seed: 7})
	ctx := context.Background()
	// as(0,0) -> as(2,0): both coalition members, so every link at either
	// end is dominated and the optimum has link-disjoint alternatives.
	src, dst := int32(0), int32(8)
	// Links carry 100 Gbps: the first session leaves 5 on the optimum.
	first, err := f.Setup(ctx, src, dst, 95, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp, err := f.StitchPath(ctx, src, dst, routing.Options{}); err != nil || !slices.Equal(sp.Nodes, first.Stitched.Nodes) {
		t.Fatalf("unconstrained read after the first session = %v, %v; want the same optimum", sp, err)
	}
	misses0, _ := regionCounts(f)
	second, err := f.Setup(ctx, src, dst, 10, routing.Options{})
	if err != nil {
		t.Fatalf("setup around the saturated optimum: %v", err)
	}
	used := make(map[[2]int32]bool)
	for i, ns := 0, first.Stitched.Nodes; i+1 < len(ns); i++ {
		used[[2]int32{min(ns[i], ns[i+1]), max(ns[i], ns[i+1])}] = true
	}
	for i, ns := 0, second.Stitched.Nodes; i+1 < len(ns); i++ {
		if used[[2]int32{min(ns[i], ns[i+1]), max(ns[i], ns[i+1])}] {
			t.Errorf("second session crosses saturated link (%d,%d)", ns[i], ns[i+1])
		}
	}
	misses1, _ := regionCounts(f)
	computed := 0
	for r := range misses0 {
		computed += int(misses1[r] - misses0[r])
	}
	if computed == 0 {
		t.Error("no region computed the constrained query")
	}
	if st := f.Stats(); st.Aborts != 0 || st.Commits != 2 {
		t.Errorf("stats = %+v, want 2 commits and no abort", st)
	}
}

// referenceBorderBetween is RegionPartition.BorderBetween as it was before
// the partition kept a table: a scan of every border IXP.
func referenceBorderBetween(p *topology.RegionPartition, r, q int) []int32 {
	var out []int32
	for _, b := range p.BorderIXPs() {
		hasR, hasQ := false, false
		for _, t := range p.Touches(b) {
			hasR = hasR || int(t) == r
			hasQ = hasQ || int(t) == q
		}
		if hasR && hasQ {
			out = append(out, b)
		}
	}
	return out
}

// referenceBorderCandidates is borderCandidates as it was before the fabric
// kept each pair's list ranked: filter by liveness, sort, cap.
func referenceBorderCandidates(f *Fabric, r, q int) []int32 {
	var cands []int32
	for _, b := range referenceBorderBetween(f.part, r, q) {
		if !f.borderDown(r, b) && !f.borderDown(q, b) {
			cands = append(cands, b)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		di, dj := f.top.Graph.Degree(int(cands[i])), f.top.Graph.Degree(int(cands[j]))
		if di != dj {
			return di > dj
		}
		return cands[i] < cands[j]
	})
	if len(cands) > maxBorderCandidates {
		cands = cands[:maxBorderCandidates]
	}
	return cands
}

// referenceRegionRoute is regionRoute over the scanned adjacency.
func referenceRegionRoute(f *Fabric, rs, rd int) []int {
	if rs == rd {
		return []int{rs}
	}
	prev := make([]int, len(f.regions))
	for i := range prev {
		prev[i] = -1
	}
	prev[rs] = rs
	for queue := []int{rs}; len(queue) > 0; queue = queue[1:] {
		r := queue[0]
		for q := range f.regions {
			if q == r || prev[q] != -1 || f.regions[q].crashed || len(referenceBorderBetween(f.part, r, q)) == 0 {
				continue
			}
			prev[q] = r
			queue = append(queue, q)
		}
	}
	if prev[rd] == -1 {
		return nil
	}
	var route []int
	for at := rd; at != rs; at = prev[at] {
		route = append(route, at)
	}
	route = append(route, rs)
	slices.Reverse(route)
	return route
}

// TestBorderCandidatesMatchReference: the precomputed tables answer exactly
// what the per-call scan and sort answered, under random region crashes,
// border-broker crashes and gossip rounds, on federations of 2 to 6 regions.
func TestBorderCandidatesMatchReference(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pick := rand.New(rand.NewSource(17))
	compared, capped := 0, 0
	for n := 2; n <= 6; n++ {
		f, err := New(top, Config{Regions: n, BrokerBudget: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 12; round++ {
			// Move the down-mask: crash or recover a border broker in one
			// region's plane, sometimes a whole region, then let gossip carry
			// some of it (a crashed region neither sends nor hears).
			reg := f.Region(pick.Intn(n))
			if bs := reg.BorderIXPs(); len(bs) > 0 {
				if l := bs[pick.Intn(len(bs))]; reg.Plane.Crashed(l) {
					reg.Plane.Recover(l)
				} else {
					reg.Plane.Crash(l)
				}
			}
			if r := pick.Intn(n); pick.Intn(3) == 0 {
				if f.RegionCrashed(r) {
					f.RecoverRegion(r)
				} else {
					f.CrashRegion(r)
				}
			}
			if pick.Intn(2) == 0 {
				f.gossip()
			}
			for r := 0; r < n; r++ {
				for q := 0; q < n; q++ {
					if !slices.Equal(f.part.BorderBetween(r, q), referenceBorderBetween(f.part, r, q)) {
						t.Fatalf("%d regions: BorderBetween(%d,%d) = %v, scan finds %v", n, r, q,
							f.part.BorderBetween(r, q), referenceBorderBetween(f.part, r, q))
					}
					got, want := f.borderCandidates(r, q), referenceBorderCandidates(f, r, q)
					if !slices.Equal(got, want) {
						t.Fatalf("%d regions, round %d: borderCandidates(%d,%d) = %v, filter-sort-cap gives %v", n, round, r, q, got, want)
					}
					compared++
					if len(got) == maxBorderCandidates {
						capped++
					}
					route, err := f.regionRoute(r, q)
					if want := referenceRegionRoute(f, r, q); !slices.Equal(route, want) || (err == nil) != (want != nil) {
						t.Fatalf("%d regions, round %d: regionRoute(%d,%d) = %v (%v), reference %v", n, round, r, q, route, err, want)
					}
				}
			}
		}
	}
	if capped == 0 {
		t.Fatalf("%d comparisons, none reached the candidate cap", compared)
	}
}
