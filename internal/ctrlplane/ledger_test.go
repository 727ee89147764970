package ctrlplane

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// A hold placed before a membership change is still the agent's to settle
// after it: the abort credits the held bandwidth back and a commit keeps it
// reserved until the teardown releases it. The owner-moved cases move the
// held link (2,3) from broker 3 to broker 2, so the settling agent no longer
// owns it; capacity is the link's, so it still lands, and it lands durably —
// every broker is crashed and recovered before the check. The
// then-crashed cases crash broker 2 after the move and change the
// membership again while broker 3 still holds on (2,3): the crashed owner's
// row keeps its residual, so the abort credits the hold once. In the
// holder-departed case broker 3 leaves in the second change instead: its
// departure presumes the attempt aborted and credits its hold, and the later
// abort finds nothing left to credit. In the holder-crashed case the holder
// itself is down through the change and the commit: its recovery finds the
// commit decided and keeps the hold reserved.
func TestHoldSurvivesMembershipChange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		path   []int32 // nil: 0-1-2-3-4
		before []int32
		after  [][]int32 // successive memberships
		crash  int32     // crashed before the last change, recovered after settling (0: none)
		commit bool
	}{
		{"abort", nil, []int32{1, 2, 3}, [][]int32{{1, 2, 3, 4}}, 0, false},
		{"commit-teardown", nil, []int32{1, 2, 3}, [][]int32{{1, 2, 3, 4}}, 0, true},
		{"abort-owner-moved", nil, []int32{1, 3}, [][]int32{{1, 2, 3}}, 0, false},
		{"commit-teardown-owner-moved", nil, []int32{1, 3}, [][]int32{{1, 2, 3}}, 0, true},
		{"abort-owner-moved-then-crashed", nil, []int32{1, 3}, [][]int32{{1, 2, 3}, {1, 2, 3, 4}}, 2, false},
		{"commit-teardown-owner-moved-then-crashed", nil, []int32{1, 3}, [][]int32{{1, 2, 3}, {1, 2, 3, 4}}, 2, true},
		{"abort-owner-moved-then-crashed-holder-departed", []int32{2, 3}, []int32{1, 3}, [][]int32{{1, 2, 3}, {1, 2}}, 2, false},
		{"commit-holder-crashed", nil, []int32{1, 3}, [][]int32{{1, 3, 4}}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top, m := lineTop(t)
			p := New(top, m, tc.before)
			folded := watchFold(t, p)
			ctx := context.Background()
			path := tc.path
			if path == nil {
				path = []int32{0, 1, 2, 3, 4}
			}
			s, err := p.PrepareOnPath(ctx, path, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i, set := range tc.after {
				if i == len(tc.after)-1 && tc.crash != 0 {
					p.Crash(tc.crash)
				}
				p.SetBrokers(set)
				folded("SetBrokers")
			}
			final := tc.after[len(tc.after)-1]
			if tc.commit {
				err = p.CommitPrepared(ctx, s)
			} else {
				err = p.AbortPrepared(ctx, s)
			}
			if err != nil {
				t.Fatal(err)
			}
			p.Recover(tc.crash)
			folded("Recover")
			if err := p.Reconcile(ctx); err != nil {
				t.Fatal(err)
			}
			if tc.commit {
				if err := p.CheckInvariants([]*Session{s}); err != nil {
					t.Fatalf("after commit: %v", err)
				}
				if err := p.Teardown(ctx, s); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.CheckInvariants(nil); err != nil {
				t.Fatalf("after settling: %v", err)
			}
			for _, b := range final {
				p.Crash(b)
			}
			for _, b := range final {
				p.Recover(b)
				folded("Recover")
			}
			if err := p.CheckInvariants(nil); err != nil {
				t.Fatalf("after crash and recovery: %v", err)
			}
		})
	}
}

// A departing member settles what was sent to it before its agent goes: a
// release backlogged toward broker 3, which leaves the coalition before it
// hears of it, credits the hops (2,3) and (3,4) on their new owners, brokers
// 2 and 4, durably. Broker 3 is cut off by a partition, so its agent's own
// memory says what it applied, or crashed, so its log does.
func TestDepartureSettlesBacklog(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "partitioned"
		if crash {
			name = "crashed"
		}
		t.Run(name, func(t *testing.T) {
			top, m := lineTop(t)
			p := New(top, m, []int32{1, 3})
			folded := watchFold(t, p)
			ft := NewFaultTransport(FaultConfig{})
			p.UseTransport(ft)
			ctx := context.Background()
			s, err := p.Setup(ctx, 0, 4, 4, routing.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if crash {
				p.Crash(3)
			} else {
				ft.Partition(3, true)
			}
			if err := p.Teardown(ctx, s); err != nil {
				t.Fatal(err)
			}
			if p.Stats().Backlogged == 0 {
				t.Fatal("the release toward broker 3 was not backlogged")
			}
			p.SetBrokers([]int32{1, 2, 4})
			folded("SetBrokers")
			if crash {
				p.Recover(3)
			} else {
				ft.Partition(3, false)
			}
			if err := p.Reconcile(ctx); err != nil {
				t.Fatal(err)
			}
			if err := p.CheckInvariants(nil); err != nil {
				t.Fatalf("after departure: %v", err)
			}
			for _, b := range p.Brokers() {
				p.Crash(b)
				p.Recover(b)
			}
			if err := p.CheckInvariants(nil); err != nil {
				t.Fatalf("after crash and recovery: %v", err)
			}
		})
	}
}

// lossyTransport loses every message lose selects (nil: none).
type lossyTransport struct {
	Transport
	lose func(m Message) bool
}

func (t *lossyTransport) Send(m Message) {
	if t.lose == nil || !t.lose(m) {
		t.Transport.Send(m)
	}
}

// A decision record backlogged toward a live owner is still that owner's to
// apply after its row has moved to a member that then crashed through a
// second membership change. The crashed member's row keeps its residual, so
// a release the owner had not applied lands on it once, a release it applied
// whose ack was lost does not land again, and a commit moves nothing. Broker
// 3 owns (2,3) when the record is decided; the record is lost, or only its
// ack is; then (2,3) moves to broker 2, broker 2 crashes and the membership
// changes again. A last case backlogs the release toward the crashed member
// itself: the backlog survives the change and lands once after recovery.
func TestBacklogSurvivesReseed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		commit   bool // the record commits a prepared session (else: releases a committed one)
		acksOnly bool // broker 3 applies the record and only its ack is lost
	}{
		{"release", false, false},
		{"release-applied-ack-lost", false, true},
		{"commit", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top, m := lineTop(t)
			p := New(top, m, []int32{1, 3})
			folded := watchFold(t, p)
			tr := &lossyTransport{Transport: NewFaultTransport(FaultConfig{})}
			p.UseTransport(tr)
			ctx := context.Background()
			var s *Session
			var err error
			if tc.commit {
				s, err = p.PrepareOnPath(ctx, []int32{0, 1, 2, 3, 4}, 4)
			} else {
				s, err = p.Setup(ctx, 0, 4, 4, routing.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			tr.lose = func(m Message) bool { return m.From == 3 || (m.To == 3 && !tc.acksOnly) }
			if tc.commit {
				err = p.CommitPrepared(ctx, s)
			} else {
				err = p.Teardown(ctx, s)
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.Stats().Backlogged == 0 {
				t.Fatal("the record toward broker 3 was not backlogged")
			}
			p.SetBrokers([]int32{1, 2, 3}) // (2,3) moves from broker 3 to broker 2
			folded("SetBrokers")
			p.Crash(2)
			p.SetBrokers([]int32{1, 2, 3, 4}) // broker 2 is down through the change
			folded("SetBrokers")
			tr.lose = nil
			p.Recover(2)
			folded("Recover")
			if err := p.Reconcile(ctx); err != nil {
				t.Fatal(err)
			}
			var committed []*Session
			if tc.commit {
				committed = []*Session{s}
			}
			if err := p.CheckInvariants(committed); err != nil {
				t.Fatalf("after reconcile: %v", err)
			}
			if tc.commit {
				if err := p.Teardown(ctx, s); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range p.Brokers() {
				p.Crash(b)
				p.Recover(b)
			}
			if err := p.CheckInvariants(nil); err != nil {
				t.Fatalf("after crash and recovery: %v", err)
			}
		})
	}
	t.Run("release-owed-to-crashed-member", func(t *testing.T) {
		top, m := lineTop(t)
		p := New(top, m, []int32{1, 2, 3})
		ctx := context.Background()
		s, err := p.Setup(ctx, 0, 4, 4, routing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.Crash(2)
		if err := p.Teardown(ctx, s); err != nil {
			t.Fatal(err)
		}
		p.SetBrokers([]int32{1, 2, 3, 4})
		p.Recover(2)
		if err := p.Reconcile(ctx); err != nil {
			t.Fatal(err)
		}
		if err := p.CheckInvariants(nil); err != nil {
			t.Fatal(err)
		}
	})
}

// refLedger is the ledger SetBrokers migrated before the columns, kept as the
// oracle for the delta migration: per member, its links' residuals by hop,
// kept while the member is crashed (its rows only read as lost), and the
// crash marks.
type refLedger struct {
	top     *topology.Topology
	metrics *routing.Metrics
	inB     []bool
	avail   map[int32]map[[2]int32]float64
	crashed map[int32]bool
}

// setBrokersReference is SetBrokers as a full rebuild: every member's ledger
// is rebuilt over all links — a link managed before and after keeps the
// residual its owner had, crashed or not, and a newly managed link seeds from
// the metrics residual.
func setBrokersReference(r *refLedger, brokers []int32) (added, removed []int32) {
	newIn := make([]bool, len(r.inB))
	for _, b := range brokers {
		newIn[b] = true
	}
	for u := range r.inB {
		switch {
		case newIn[u] && !r.inB[u]:
			added = append(added, int32(u))
		case !newIn[u] && r.inB[u]:
			removed = append(removed, int32(u))
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return nil, nil
	}
	oldAvail := make(map[[2]int32]float64)
	for _, a := range r.avail {
		for hop, avail := range a {
			oldAvail[hop] = avail
		}
	}
	r.inB = newIn
	r.avail = make(map[int32]map[[2]int32]float64, len(brokers))
	for _, b := range brokers {
		r.avail[b] = make(map[[2]int32]float64)
	}
	r.top.Graph.Edges(func(u, v int) bool {
		owner, ok := ownerIn(r.inB, int32(u), int32(v))
		if !ok {
			return true
		}
		key := hopKey(int32(u), int32(v))
		if avail, had := oldAvail[key]; had {
			r.avail[owner][key] = avail
		} else {
			r.avail[owner][key] = r.metrics.Residual(int32(u), int32(v))
		}
		return true
	})
	return added, removed
}

// available is Plane.Available under the reference ledger.
func (r *refLedger) available(u, v int32) float64 {
	owner, ok := ownerIn(r.inB, u, v)
	if !ok || r.crashed[owner] {
		return 0
	}
	return r.avail[owner][hopKey(u, v)]
}

// TestSetBrokersMatchesReference drives the delta migration and the reference
// through the same random membership rounds — brokers joining and leaving,
// members crashing and recovering, crashed members surviving a change or
// leaving in it — over a MaxSG coalition carrying committed sessions, at
// quiescence, and requires after every round: the same membership delta; on
// every link the same owner (and an owner column that agrees with it) and
// bit for bit the same Available; every member's WAL, a crashed member's
// included, replaying to exactly the rows the reference gives it, with
// nothing held.
func TestSetBrokersMatchesReference(t *testing.T) {
	const rounds = 200
	seed := chaosSeed(t)
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 40)
	if err != nil {
		t.Fatal(err)
	}
	m := routing.DefaultMetrics(top, nil)
	p := New(top, m, brokers)
	folded := watchFold(t, p)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	var sessions []*Session
	for tries := 0; len(sessions) < 60 && tries < 10000; tries++ {
		src, dst := brokers[rng.Intn(len(brokers))], rng.Intn(top.NumNodes())
		if s, err := p.Setup(ctx, int(src), dst, 1+4*rng.Float64(), routing.Options{}); err == nil {
			sessions = append(sessions, s)
		}
	}
	if len(sessions) < 60 {
		t.Fatalf("only %d sessions committed", len(sessions))
	}
	if err := p.CheckInvariants(sessions); err != nil {
		t.Fatal(err)
	}

	r := &refLedger{
		top: top, metrics: m, inB: append([]bool(nil), p.inB...),
		avail: make(map[int32]map[[2]int32]float64), crashed: make(map[int32]bool),
	}
	for _, b := range p.Brokers() {
		r.avail[b] = make(map[[2]int32]float64)
	}
	top.Graph.Edges(func(u, v int) bool {
		if owner, ok := p.ownerOf(int32(u), int32(v)); ok {
			r.avail[owner][hopKey(int32(u), int32(v))] = p.Available(int32(u), int32(v))
		}
		return true
	})

	// Joiners are drawn half from the highest-degree nodes, whose rows are
	// the ones worth migrating, half uniformly.
	hubs := top.Graph.NodesByDegreeDesc()[:200]
	member := func() int32 { bs := p.Brokers(); return bs[rng.Intn(len(bs))] }
	for round := 0; round < rounds; round++ {
		if rng.Float64() < 0.3 {
			b := member()
			p.Crash(b)
			r.crashed[b] = true
		}
		if len(p.crashed) > 0 && rng.Float64() < 0.3 {
			var down []int32
			for b := range p.crashed {
				down = append(down, b)
			}
			slices.Sort(down)
			b := down[rng.Intn(len(down))]
			p.Recover(b)
			folded("Recover")
			delete(r.crashed, b)
		}
		next := map[int32]bool{}
		for _, b := range p.Brokers() {
			next[b] = true
		}
		for n := rng.Intn(4); n > 0 && len(next) > 1; n-- {
			delete(next, member())
		}
		for n := rng.Intn(4); n > 0; n-- {
			if rng.Intn(2) == 0 {
				next[hubs[rng.Intn(len(hubs))]] = true
			} else {
				next[int32(rng.Intn(top.NumNodes()))] = true
			}
		}
		set := make([]int32, 0, len(next))
		for b := range next {
			set = append(set, b)
		}
		slices.Sort(set)

		added, removed := p.SetBrokers(set)
		folded("SetBrokers")
		wantAdded, wantRemoved := setBrokersReference(r, set)
		if !slices.Equal(added, wantAdded) || !slices.Equal(removed, wantRemoved) {
			t.Fatalf("round %d: delta +%v -%v, reference +%v -%v", round, added, removed, wantAdded, wantRemoved)
		}
		top.Graph.Edges(func(u, v int) bool {
			a, b := int32(u), int32(v)
			owner, ok := p.ownerOf(a, b)
			wantOwner, wantOK := ownerIn(r.inB, a, b)
			if owner != wantOwner || ok != wantOK {
				t.Fatalf("round %d: link (%d,%d) owner %d/%v, reference %d/%v", round, u, v, owner, ok, wantOwner, wantOK)
			}
			if col := p.owner[p.link(a, b)]; (ok && col != owner) || (!ok && col != -1) {
				t.Fatalf("round %d: link (%d,%d) owner column %d, ownerOf %d/%v", round, u, v, col, owner, ok)
			}
			if got, want := p.Available(a, b), r.available(a, b); got != want {
				t.Fatalf("round %d: link (%d,%d) available %v, reference %v", round, u, v, got, want)
			}
			return true
		})
		for _, b := range p.Brokers() {
			rows, st := replayed(top.Graph, p.wals[b])
			want := r.avail[b]
			if len(st.holds) != 0 || len(rows) != len(want) {
				t.Fatalf("round %d: broker %d replays %d rows and %d hold sets, reference %d rows", round, b, len(rows), len(st.holds), len(want))
			}
			for hop, avail := range want {
				if got, ok := rows[p.link(hop[0], hop[1])]; !ok || got != avail {
					t.Fatalf("round %d: broker %d replays link %v as %v (present %v), reference %v", round, b, hop, got, ok, avail)
				}
			}
		}
	}
}
