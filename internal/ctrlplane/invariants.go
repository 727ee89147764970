package ctrlplane

import (
	"fmt"
	"math"
	"sort"
)

// capacityEps absorbs float accumulation error across thousands of
// reserve/release round-trips.
const capacityEps = 1e-6

// CheckInvariants verifies the control plane's conservation laws against
// the set of sessions the caller believes are committed. It must be called
// at quiescence: every broker recovered, every partition lifted, and the
// backlog drained (Reconcile). It proves, for every broker and managed
// link:
//
//   - no agent is left holding prepared-but-unfinalized capacity (leaks);
//   - each agent's ledgered availability equals link capacity minus the
//     bandwidth of the committed sessions crossing it (conservation);
//   - the coordinator's shared metrics mirror agrees with the ledgers;
//   - no setup attempt committed twice on any broker's WAL
//     (idempotency held under duplication and retries).
//
// The first violation found is returned as a descriptive error; nil means
// every invariant holds.
func (p *Plane) CheckInvariants(committed []*Session) error {
	if len(p.crashed) > 0 {
		var bs []int32
		for b := range p.crashed {
			bs = append(bs, b)
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		return fmt.Errorf("ctrlplane: invariant check requires quiescence: broker(s) still crashed: %v", bs)
	}
	if p.d.Backlogged() > 0 {
		return fmt.Errorf("ctrlplane: invariant check requires quiescence: %d backlog message(s) undelivered (run Reconcile)", p.d.Backlogged())
	}

	// Committed load per managed link, from the caller's session list.
	load := make(map[int32]float64)
	for _, s := range committed {
		if s == nil {
			return fmt.Errorf("ctrlplane: nil session in committed set")
		}
		if s.State != StateCommitted {
			return fmt.Errorf("ctrlplane: session %d in committed set has state %d", s.ID, s.State)
		}
		for i := 0; i+1 < len(s.Path); i++ {
			u, v := s.Path[i], s.Path[i+1]
			if _, ok := p.ownerOf(u, v); !ok {
				return fmt.Errorf("ctrlplane: committed session %d hop (%d,%d) has no broker owner", s.ID, u, v)
			}
			load[p.link(u, v)] += s.Bandwidth
		}
	}

	for _, b := range p.Brokers() {
		a := p.agents[b]
		if n := len(a.holds); n > 0 {
			// Distinguish true leaks from leased-but-expired capacity still
			// awaiting its sweep: the latter is not lost, just one Tick away
			// from being credited back.
			keys := inDoubt(a.holds)
			expired, expiredBW := 0, 0.0
			for _, key := range keys {
				lapsed := true
				for _, h := range a.holds[key] {
					if h.expires == 0 || h.expires > p.d.Now() {
						lapsed = false
					}
				}
				if lapsed {
					expired++
					for _, h := range a.holds[key] {
						expiredBW += h.bw
					}
				}
			}
			if expired == n {
				return fmt.Errorf("ctrlplane: broker %d holds %d leased-but-expired set(s) (%.3f Gbps) awaiting lease sweep — run Tick",
					b, n, expiredBW)
			}
			return fmt.Errorf("ctrlplane: broker %d leaked %d unfinalized hold set(s) (%d expired-lease), first: session %d epoch %d",
				b, n, expired, keys[0].ID, keys[0].Epoch)
		}
		// b's rows in ascending link order, i.e. by (lower, upper) endpoint.
		for _, w := range p.top.Graph.Neighbors(int(b)) {
			l := p.link(b, w)
			if p.owner[l] != b {
				continue
			}
			hop := hopKey(b, w)
			avail := p.avail[l]
			want := p.metrics.Capacity(hop[0], hop[1]) - load[l]
			if avail < -capacityEps {
				return fmt.Errorf("ctrlplane: broker %d link (%d,%d) over-committed: availability %.9f < 0",
					b, hop[0], hop[1], avail)
			}
			if math.Abs(avail-want) > capacityEps {
				return fmt.Errorf("ctrlplane: broker %d link (%d,%d) ledger drift: available %.9f, want capacity−committed = %.9f",
					b, hop[0], hop[1], avail, want)
			}
			if res := p.metrics.Residual(hop[0], hop[1]); math.Abs(res-want) > capacityEps {
				return fmt.Errorf("ctrlplane: link (%d,%d) metrics mirror drift: residual %.9f, want %.9f",
					hop[0], hop[1], res, want)
			}
		}
	}

	for _, b := range p.Brokers() {
		w := p.wals[b]
		if w == nil {
			continue
		}
		for key, n := range w.commitCounts() {
			if n > 1 {
				return fmt.Errorf("ctrlplane: broker %d committed session %d epoch %d %d times",
					b, key.ID, key.Epoch, n)
			}
		}
	}
	return nil
}
