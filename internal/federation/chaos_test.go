package federation

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
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
// an artifact) or a temp file, headed by the chaos seed and the violation.
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

// Flight golden of TestChaosLossDupMidCommitRegionCrash at seed 1, pinned
// before the recorder stored typed events: the count of events recorded
// and an FNV-64a hash of their rendering (flightDigest). Seq and Wall are
// left out; everything a dump explains a run with is in.
const (
	goldenFlightEvents = 720
	goldenFlightHash   = 0x03597ee2ea4d6f9a
)

// flightDigest renders each event as "subsystem kind clock detail" and
// returns the event count and the FNV-64a hash of the rendering.
func flightDigest(evs []obs.FlightEvent) (int, uint64) {
	h := fnv.New64a()
	for _, e := range evs {
		fmt.Fprintf(h, "%s %s %d %s\n", e.Subsystem, e.Kind, e.Clock, e.Detail)
	}
	return len(evs), h.Sum64()
}

// verifyConserved checks the all-or-nothing outcome of one cross-region
// attempt: either the fabric's table holds it — the session is committed —
// and every region's sub-WAL carries a committed segment, or it is aborted
// and no region holds one.
func verifyConserved(t *testing.T, f *Fabric, fr *obs.FlightRecorder, seed int64, s *Session) {
	t.Helper()
	fk := fedKey{ID: s.ID, Epoch: s.Epoch}
	committed := f.sessions[s.ID] != nil && f.sessions[s.ID].Epoch == s.Epoch
	for r := 0; r < f.NumRegions(); r++ {
		rec := f.Region(r).subs[fk]
		has := rec != nil && rec.State == ctrlplane.StateCommitted
		inPath := false
		if s.Stitched != nil {
			for _, seg := range s.Stitched.Segments {
				if seg.Region == r && len(seg.Nodes) >= 2 {
					inPath = true
				}
			}
		}
		if committed && inPath && !has {
			violation := "committed session missing a region segment"
			dumpFlight(t, fr, seed, violation)
			t.Fatalf("%s: session %d.%d region %d record %+v", violation, s.ID, s.Epoch, r, rec)
		}
		if !committed && has {
			violation := "aborted session left a committed segment"
			dumpFlight(t, fr, seed, violation)
			t.Fatalf("%s: session %d.%d region %d", violation, s.ID, s.Epoch, r)
		}
	}
}

// carries reports whether m is a decision record with an entry of kind k.
func carries(m ctrlplane.Message, k ctrlplane.BatchEntryKind) bool {
	for _, e := range m.Batch {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// TestPartitionMidSetupConserved is the acceptance chaos scenario: the
// inter-region bus partitions the home region away from its transit
// regions in the middle of a cross-region setup (after prepares may have
// landed, before commits can). The stitched session must either fully
// commit in both regions' WALs or be conserved-aborted in both — never
// half-reserved — once the partition heals and the fabric reconciles.
func TestPartitionMidSetupConserved(t *testing.T) {
	seed := chaosSeed(t)
	for _, cut := range []struct {
		name string
		at   func(ctrlplane.Message) bool
	}{
		{"X-PREPARE", func(m ctrlplane.Message) bool { return m.Type == ctrlplane.MsgXPrepare }},
		{"commit", func(m ctrlplane.Message) bool { return carries(m, ctrlplane.EntryCommit) }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			f := fedFabric(t, 4, 1, Config{
				Seed: seed,
				Retry: ctrlplane.RetryConfig{
					MaxAttempts: 3, LeaseTTL: 30, BreakerThreshold: 100,
				},
				PeerFaults: &ctrlplane.FaultConfig{Seed: seed},
			})
			fr := obs.NewFlightRecorder(4096)
			f.SetFlightRecorder(fr)
			ft := f.peerFT

			// Cut both directions between region 0 and its peers the moment
			// the first message of the chosen phase hits the wire.
			ft.OnDeliver = func(m ctrlplane.Message) {
				if cut.at(m) {
					ft.Partition(ctrlplane.PeerAddr(1), true)
					ft.Partition(ctrlplane.PeerAddr(2), true)
				}
			}
			s, setupErr := f.Setup(context.Background(), 2, 10, 5, routing.Options{})
			if setupErr != nil && s == nil {
				// A setup that aborted hands out no record; the attempt it
				// made was session 1, epoch 1.
				s = &Session{ID: 1, Epoch: 1}
			}
			ft.OnDeliver = nil

			// The partition outlasts every lease: abandoned transit holds
			// must self-clean while the bus is down.
			for i := 0; i < 40; i++ {
				f.tick()
			}
			ft.Partition(ctrlplane.PeerAddr(1), false)
			ft.Partition(ctrlplane.PeerAddr(2), false)
			if err := f.Reconcile(context.Background()); err != nil {
				dumpFlight(t, fr, seed, err.Error())
				t.Fatal(err)
			}
			// A session that reached the commit point may have been rolled
			// back during reconciliation (transit lease expired), leaving
			// the fabric's table: both final states are legal, half-states
			// are not.
			verifyConserved(t, f, fr, seed, s)
			if err := f.CheckInvariants(); err != nil {
				dumpFlight(t, fr, seed, err.Error())
				t.Fatal(err)
			}
		})
	}
}

// TestChaosLossDupMidCommitRegionCrash is the full acceptance chaos run:
// 3%/3% loss and duplication on the inter-region bus, a stream of
// cross-region setups and teardowns, and one transit region crashed at the
// exact delivery of a mid-commit decision record, recovered later.
// Conservation must hold in every region's WAL at quiescence.
func TestChaosLossDupMidCommitRegionCrash(t *testing.T) {
	seed := chaosSeed(t)
	f := fedFabric(t, 4, 2, Config{
		Seed: seed,
		Retry: ctrlplane.RetryConfig{
			MaxAttempts: 4, LeaseTTL: 60, BreakerThreshold: 1000,
		},
		PeerFaults: &ctrlplane.FaultConfig{
			Seed:     seed,
			ToBroker: ctrlplane.FaultRates{Drop: 0.03, Duplicate: 0.03},
			ToCoord:  ctrlplane.FaultRates{Drop: 0.03, Duplicate: 0.03},
		},
	})
	fr := obs.NewFlightRecorder(1 << 14)
	f.SetFlightRecorder(fr)
	ft := f.peerFT

	// Crash region 1 at the exact moment the 6th setup's commit record is
	// delivered to it: commit reached at home, undelivered at the transit.
	crashed := false
	commitSeen := 0
	ft.OnDeliver = func(m ctrlplane.Message) {
		if carries(m, ctrlplane.EntryCommit) && m.To == ctrlplane.PeerAddr(1) {
			commitSeen++
			if commitSeen == 6 && !crashed {
				crashed = true
				f.crashRegion(1) // inside Setup's pump, under its lock
			}
		}
	}

	ctx := context.Background()
	var live []*Session
	setups, commits := 0, 0
	for i := 0; i < 30; i++ {
		src := int32((i * 3) % 12) // region 0 or 1 ASes
		dst := int32(11 - (i*5)%4) // region 2 ASes (8..11)
		s, err := f.Setup(ctx, src, dst, 1, routing.Options{})
		setups++
		if err == nil {
			commits++
			live = append(live, s)
		}
		if len(live) > 3 {
			_ = f.Teardown(ctx, live[0]) // refused if it was rolled back since
			live = live[1:]
		}
		if i%5 == 4 {
			f.gossip()
		}
		if crashed && f.RegionCrashed(1) && i > 20 {
			f.RecoverRegion(1)
		}
	}
	if f.RegionCrashed(1) {
		f.RecoverRegion(1)
	}
	ft.OnDeliver = nil
	if err := f.Reconcile(ctx); err != nil {
		dumpFlight(t, fr, seed, err.Error())
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		dumpFlight(t, fr, seed, err.Error())
		t.Fatal(err)
	}
	// Every surviving committed session must be committed in every region
	// its path crosses.
	for _, h := range live {
		if s := f.sessions[h.ID]; s != nil {
			verifyConserved(t, f, fr, seed, s)
		}
	}
	if setups != 30 {
		t.Fatalf("drove %d setups, want 30", setups)
	}
	if commits == 0 {
		dumpFlight(t, fr, seed, "no setup ever committed under 3%% loss")
		t.Fatal("no setup ever committed under 3% loss/dup chaos")
	}
	t.Logf("chaos seed %d: %d/%d setups committed, stats %+v", seed, commits, setups, f.Stats())
	if seed == 1 {
		if n, h := flightDigest(fr.Events()); n != goldenFlightEvents || h != goldenFlightHash {
			t.Fatalf("flight content: %d events hash %#x, golden %d events hash %#x",
				n, h, goldenFlightEvents, uint64(goldenFlightHash))
		}
	}
}

// TestStitchedTraceSpansRegions is the tracing acceptance criterion: with
// a fixed-seed lossy inter-region bus, one trace rooted at the home-region
// setup spans BOTH sides of the two-level commit — the home region's own
// prepare/commit (ctrlplane spans under the setup's context) and every
// transit region's sub-transaction (federation.sub_* spans adopted from
// the trace ID that rode the X-PREPARE and decision-record wire messages).
func TestStitchedTraceSpansRegions(t *testing.T) {
	seed := chaosSeed(t)
	rates := ctrlplane.FaultRates{Drop: 0.03, Duplicate: 0.03}
	f := fedFabric(t, 4, 1, Config{
		Seed:       seed,
		Retry:      ctrlplane.RetryConfig{MaxAttempts: 4, LeaseTTL: 200, BreakerThreshold: 1000},
		PeerFaults: &ctrlplane.FaultConfig{Seed: seed, ToBroker: rates, ToCoord: rates},
	})
	tr := obs.NewTracer(1 << 14)
	f.SetTracer(tr)

	ctx := context.Background()
	checked := 0
	for i := 0; i < 30; i++ {
		qctx, root := tr.Root(ctx, "test.fedsetup", 0)
		s, err := f.Setup(qctx, 2, 10, 0.5, routing.Options{}) // as(0,2)->as(2,2): 2 transit regions
		root.End()
		if err != nil {
			continue // chaos abort: conservation is covered elsewhere
		}
		spans := tr.Trace(root.TraceID)
		names := map[string]int{}
		subRegions := map[string]map[string]bool{}
		for _, sp := range spans {
			names[sp.Name]++
			if sp.Name == "federation.sub_prepare" || sp.Name == "federation.sub_commit" {
				for _, a := range sp.Attrs {
					if a.Key == "region" {
						if subRegions[sp.Name] == nil {
							subRegions[sp.Name] = map[string]bool{}
						}
						subRegions[sp.Name][a.Val] = true
					}
				}
			}
		}
		if names["federation.setup"] != 1 {
			t.Fatalf("trace %#x: %d federation.setup spans, want 1", root.TraceID, names["federation.setup"])
		}
		// Home-region commit: the home plane's prepare ran under the same trace.
		if names["ctrlplane.prepare_on_path"] == 0 {
			t.Fatalf("trace %#x misses the home-region prepare span: %v", root.TraceID, names)
		}
		// Transit-region sub-transactions: regions 1 and 2 each adopted the
		// trace for their prepare and commit steps.
		for _, step := range []string{"federation.sub_prepare", "federation.sub_commit"} {
			for _, q := range []string{"1", "2"} {
				if !subRegions[step][q] {
					t.Fatalf("trace %#x misses %s in region %s (got %v)", root.TraceID, step, q, subRegions)
				}
			}
		}
		checked++
		_ = f.Teardown(ctx, s)
	}
	if checked == 0 {
		t.Fatal("no setup committed under chaos — nothing traced")
	}
	t.Logf("chaos seed %d: %d stitched traces verified", seed, checked)
}
