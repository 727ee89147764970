package ctrlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"brokerset/internal/graph"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// chaosSeed returns the fault seed: CHAOS_SEED from the environment (the
// CI sweep sets it and prints it on failure) or 1.
func chaosSeed(t *testing.T) int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", v, err)
		}
		return seed
	}
	return 1
}

// dumpFlight writes the flight recorder to $FLIGHT_DUMP (CI uploads it as
// an artifact) or a temp file, headed by the chaos seed and the violation
// so the dump replays and explains itself.
func dumpFlight(t *testing.T, fr *obs.FlightRecorder, seed int64, violation string) {
	t.Helper()
	path := os.Getenv("FLIGHT_DUMP")
	if path == "" {
		path = filepath.Join(t.TempDir(), "flight.jsonl")
	}
	f, err := os.Create(path)
	if err != nil {
		t.Logf("flight dump: %v", err)
		return
	}
	defer f.Close()
	if err := fr.Dump(f, map[string]any{
		"test":       t.Name(),
		"chaos_seed": seed,
		"violation":  violation,
	}); err != nil {
		t.Logf("flight dump: %v", err)
		return
	}
	t.Logf("flight recorder dumped to %s (%d events)", path, fr.Len())
}

// ringTop builds an n-node peer ring where every node is a broker-grade
// AS, with uniform 1000 Gbps / 1 ms links.
func ringTop(t testing.TB, n int) (*topology.Topology, *routing.Metrics) {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, n),
		Tier:  make([]uint8, n),
		Name:  make([]string, n),
	}
	for i := range top.Tier {
		top.Tier[i] = 3
	}
	g.Edges(func(u, v int) bool {
		top.SetRel(u, v, topology.RelPeer)
		return true
	})
	m := routing.DefaultMetrics(top, rand.New(rand.NewSource(1)))
	g.Edges(func(u, v int) bool {
		m.SetCapacity(int32(u), int32(v), 1000)
		m.SetLatency(int32(u), int32(v), 1)
		return true
	})
	return top, m
}

// TestChaos2PC is the chaos harness: thousands of setups, teardowns, and
// repaths on a 12-broker ring while the transport drops, duplicates,
// delays, and reorders ≥3% of messages in both directions, brokers get
// partitioned on a rolling schedule, and at least three brokers crash in
// the middle of a commit and recover from their WALs later. At quiescence
// the invariant checker must prove capacity conservation, zero leaked
// holds, zero double commits, and agreement between agent ledgers and the
// coordinator's metrics mirror. Fully deterministic per seed: a failure
// reproduces with CHAOS_SEED=<seed printed below>.
func TestChaos2PC(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (rerun with CHAOS_SEED=%d)", seed, seed)

	const (
		nodes      = 12
		iters      = 2600
		crashGap   = 800 // commit deliveries between crash triggers
		maxCrashes = 5
		recoverLag = 50 // iterations a crashed broker stays down
	)
	top, m := ringTop(t, nodes)
	brokers := make([]int32, nodes)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	p := New(top, m, brokers)
	rates := FaultRates{Drop: 0.03, Duplicate: 0.03, Delay: 0.05, MaxDelay: 3, Reorder: 0.05}
	ft := NewFaultTransport(FaultConfig{Seed: seed, ToBroker: rates, ToCoord: rates})
	p.UseTransport(ft)
	p.SetRetryConfig(RetryConfig{MaxAttempts: 8, BreakerThreshold: 6, BreakerCooldown: 30})
	fr := obs.NewFlightRecorder(4096)
	p.SetFlightRecorder(fr)

	// Crash a broker mid-commit every crashGap-th delivery of a record
	// carrying a commit: the decision is already durable at the
	// coordinator, the agent loses it in flight.
	var (
		commitSeen int
		crashes    int
		downSince  = map[int32]int{}
		iter       int
	)
	ft.OnDeliver = func(msg Message) {
		if !carries(msg, EntryCommit) || crashes >= maxCrashes {
			return
		}
		commitSeen++
		if commitSeen%crashGap != 0 || p.Crashed(msg.To) || len(downSince) >= 2 {
			return
		}
		p.Crash(msg.To)
		downSince[msg.To] = iter
		crashes++
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed + 1))
	var (
		live     []*Session
		setups   int
		commits  int
		partedAt = map[int32]int{}
	)
	for iter = 0; iter < iters; iter++ {
		// Recover brokers whose outage elapsed (sorted for determinism).
		var due []int32
		for b, since := range downSince {
			if iter-since >= recoverLag {
				due = append(due, b)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		for _, b := range due {
			p.Recover(b)
			delete(downSince, b)
		}
		// Rolling partitions: isolate one broker for 40 iterations.
		for b, since := range partedAt {
			if iter-since >= 40 {
				ft.Partition(b, false)
				delete(partedAt, b)
			}
		}
		if iter%400 == 100 && len(partedAt) == 0 {
			b := int32(rng.Intn(nodes))
			if !p.Crashed(b) {
				ft.Partition(b, true)
				partedAt[b] = iter
			}
		}

		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		if src == dst {
			dst = (dst + 1) % nodes
		}
		setups++
		s, err := p.Setup(ctx, src, dst, 1+4*rng.Float64(), routing.Options{})
		if err == nil {
			commits++
			live = append(live, s)
		}
		if len(live) > 0 && rng.Float64() < 0.35 {
			i := rng.Intn(len(live))
			if err := p.Teardown(ctx, live[i]); err != nil {
				t.Fatalf("iter %d teardown: %v", iter, err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if len(live) > 0 && rng.Float64() < 0.04 {
			i := rng.Intn(len(live))
			if next, err := p.Repath(ctx, live[i], routing.Options{}); err != nil {
				// No surviving path or capacity: session aborted cleanly.
				live = append(live[:i], live[i+1:]...)
			} else {
				live[i] = next
			}
		}
	}

	// Quiesce: heal the network, recover everyone, drain the backlog.
	ft.OnDeliver = nil
	for b := range partedAt {
		ft.Partition(b, false)
	}
	var down []int32
	for b := range downSince {
		down = append(down, b)
	}
	sort.Slice(down, func(i, j int) bool { return down[i] < down[j] })
	for _, b := range down {
		p.Recover(b)
	}
	if err := p.Reconcile(ctx); err != nil {
		dumpFlight(t, fr, seed, err.Error())
		t.Fatalf("reconcile: %v (seed %d)", err, seed)
	}
	if err := p.CheckInvariants(live); err != nil {
		dumpFlight(t, fr, seed, err.Error())
		t.Fatalf("invariants violated: %v (seed %d)", err, seed)
	}

	st := p.Stats()
	ts := ft.Stats()
	t.Logf("setups=%d commits=%d live=%d stats=%+v transport=%+v", setups, commits, len(live), st, ts)
	if setups < 2000 {
		t.Fatalf("chaos run too small: %d setups, want >= 2000", setups)
	}
	if crashes < 3 {
		t.Fatalf("only %d mid-commit crashes, want >= 3", crashes)
	}
	if commits == 0 {
		t.Fatal("nothing committed under chaos")
	}
	if st.Retries == 0 || st.DupsDropped == 0 || st.Recoveries < 3 {
		t.Fatalf("chaos machinery unexercised: %+v", st)
	}
	if ts.Dropped == 0 || ts.Duplicated == 0 || ts.Delayed == 0 || ts.Reordered == 0 {
		t.Fatalf("fault injection unexercised: %+v", ts)
	}
}

// TestInvariantViolationDumpsFlight induces a ledger-drift invariant
// violation and proves the flight recorder produces a self-explanatory
// dump: a header carrying the chaos seed and the violated invariant,
// followed by the protocol events (sends, deliveries, the commit
// decision) that led up to it.
func TestInvariantViolationDumpsFlight(t *testing.T) {
	const nodes = 6
	seed := chaosSeed(t)
	top, m := ringTop(t, nodes)
	brokers := make([]int32, nodes)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	p := New(top, m, brokers)
	fr := obs.NewFlightRecorder(256)
	p.SetFlightRecorder(fr)

	s, err := p.Setup(context.Background(), 0, 2, 5, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one hop's ledger row behind the protocol's back.
	p.avail[p.link(s.Path[0], s.Path[1])] += 3

	verr := p.CheckInvariants([]*Session{s})
	if verr == nil {
		t.Fatal("corrupted ledger passed the invariant check")
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	t.Setenv("FLIGHT_DUMP", path)
	dumpFlight(t, fr, seed, verr.Error())

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("dump has %d lines, want header + events", len(lines))
	}
	var hdr struct {
		ChaosSeed int64  `json:"chaos_seed"`
		Violation string `json:"violation"`
		Events    int    `json:"events"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatalf("header not JSON: %v", err)
	}
	if hdr.ChaosSeed != seed || hdr.Violation != verr.Error() || hdr.Events != len(lines)-1 {
		t.Fatalf("header = %+v, want seed %d and violation %q", hdr, seed, verr.Error())
	}
	kinds := map[string]bool{}
	for _, ln := range lines[1:] {
		var e obs.FlightEvent
		if err := json.Unmarshal(ln, &e); err != nil {
			t.Fatalf("event line not JSON: %v", err)
		}
		kinds[e.Kind] = true
	}
	for _, want := range []string{"send", "deliver", "decide"} {
		if !kinds[want] {
			t.Fatalf("dump missing %q events; got kinds %v", want, kinds)
		}
	}
}
