package federation

import (
	"brokerset/internal/ctrlplane"
)

// regionDigest is what one region knows about a peer region via gossip:
// the peer's snapshot epoch, its saturated connectivity, which of its
// border brokers are down, and when the last digest arrived.
type regionDigest struct {
	Epoch      uint32
	Conn       float64
	borderDown map[int32]bool
	LastSeen   int
}

// gossip floods one round of region digests (every 5th Beat): every live
// region tells every adjacent live region, per shared border broker, whether
// that broker is up on its side, stamped with its snapshot epoch. Fire and
// forget — no acks, no retries; loss is repaired by the next round, and stale
// digests are fenced by the epoch stamp.
func (f *Fabric) gossip() {
	for r, reg := range f.regions {
		if reg.crashed {
			continue
		}
		ep := uint32(reg.Pub.Epoch())
		conn := reg.Pub.Current().Connectivity()
		for q, peer := range f.regions {
			if q == r || peer.crashed || !f.part.Adjacent(r, q) {
				continue
			}
			for _, l := range reg.borderLocal {
				up := int32(1)
				if reg.Plane.Crashed(l) {
					up = 0
				}
				f.stats.GossipSent++
				f.d.Send(ctrlplane.Message{
					From: ctrlplane.PeerAddr(r), To: ctrlplane.PeerAddr(q),
					Type: ctrlplane.MsgGossip, SessionID: r, Epoch: ep,
					MsgID: f.d.NextID(), Hop: [2]int32{reg.Global(l), up},
					Bandwidth: conn,
				})
			}
		}
	}
	f.d.Transport.Advance()
	f.d.Pump()
}

// handleGossip folds one digest fragment into region q's view of the
// source region, keeping only fragments at least as fresh as what it has.
func (f *Fabric) handleGossip(q int, m ctrlplane.Message) {
	src := m.SessionID
	if src < 0 || src >= len(f.regions) || src == q {
		return
	}
	peers := f.regions[q].peers
	d := peers[src]
	if d == nil {
		d = &regionDigest{borderDown: make(map[int32]bool)}
		peers[src] = d
	}
	if m.Epoch < d.Epoch {
		return // stale fragment from a reordered round
	}
	d.Epoch = m.Epoch
	d.Conn = m.Bandwidth
	d.LastSeen = f.d.Now()
	d.borderDown[m.Hop[0]] = m.Hop[1] == 0
	f.stats.GossipApplied++
}
