package federation

import (
	"context"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// HealReport summarizes one healer pass.
type HealReport struct {
	// Checked counts committed sessions examined.
	Checked int `json:"checked"`
	// Restitched counts damaged sessions moved onto a fresh stitched path.
	Restitched int `json:"restitched"`
	// Aborted counts damaged sessions conserved-aborted because no stitched
	// path (or capacity) survived.
	Aborted int `json:"aborted"`
}

// Heal walks every standing federated session and re-stitches the ones
// damaged by a border-broker crash or a peer-region failure:
// break-before-make, the damaged record leaves the table, its segments are
// released everywhere they can be (releases toward crashed regions ride the
// backlog), then the next epoch's record is established over a fresh
// stitched path and goes into the table — only if that commit succeeds.
// Leaving the table first is what fences the superseded attempt: a refusal
// of its backlogged commit, pumped while the heal runs, matches no record.
// Sessions whose home region is down are skipped — only their home
// coordinator may decide for them.
func (f *Fabric) Heal(ctx context.Context) HealReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.heal(ctx)
}

func (f *Fabric) heal(ctx context.Context) HealReport {
	ctx, span := obs.StartSpan(ctx, "federation.heal")
	defer span.End()
	f.tick()
	var rep HealReport
	for _, s := range f.standing() {
		// A rollback pumped while an earlier session healed may have taken
		// this one out of the table since the list was made.
		if f.sessions[s.ID] != s || f.regions[f.part.RegionOf(s.Src)].crashed {
			continue
		}
		rep.Checked++
		if !f.sessionDamaged(s) {
			continue
		}
		f.flight.Record("federation", "heal", int64(f.d.Now()), "session %d.%d damaged", "", int64(s.ID), int64(s.Epoch))
		delete(f.sessions, s.ID)
		f.releaseSegments(ctx, s)
		next := &Session{ID: s.ID, Epoch: s.Epoch + 1, Src: s.Src, Dst: s.Dst, Bandwidth: s.Bandwidth}
		sp, err := f.stitchPath(ctx, s.Src, s.Dst, routing.Options{}.Reserving(s.Bandwidth))
		if err == nil {
			next.Stitched = sp
			err = f.establishStitched(ctx, next)
		}
		if err != nil {
			f.flight.Record("federation", "heal_abort", int64(f.d.Now()), "session %d.%d: %s", err.Error(), int64(next.ID), int64(next.Epoch))
			rep.Aborted++
			f.stats.HealAborted++
			continue
		}
		f.sessions[next.ID] = next
		rep.Restitched++
		f.stats.Restitched++
	}
	span.Annotatef("healed", "%d checked, %d restitched, %d aborted", rep.Checked, rep.Restitched, rep.Aborted)
	return rep
}

// sessionDamaged reports whether a committed stitched session can no longer
// be served as established: a segment's region is down, a stitch-point
// border broker is down on either side, or a region's own plane reports the
// segment damaged (link failure, ownership moved, agent crashed).
func (f *Fabric) sessionDamaged(s *Session) bool {
	fk := fedKey{ID: s.ID, Epoch: s.Epoch}
	for i, seg := range s.Stitched.Segments {
		r := seg.Region
		if f.regions[r].crashed {
			return true
		}
		// The joint into the next region must be live on both sides.
		if i+1 < len(s.Stitched.Segments) {
			next := s.Stitched.Segments[i+1]
			var joint int32
			if len(next.Nodes) > 0 {
				joint = next.Nodes[0]
			} else if len(seg.Nodes) > 0 {
				joint = seg.Nodes[len(seg.Nodes)-1]
			}
			if f.borderDown(r, joint) || f.borderDown(next.Region, joint) {
				return true
			}
		}
		if f.regions[r].segmentDamaged(fk) {
			return true
		}
	}
	return false
}

// releaseSegments releases every segment of s's current attempt: the home
// segment on the spot, live remote segments synchronously, segments in regions
// the healer already found crashed via the backlog (delivered at recovery,
// without a timeout counted against a region nobody tried to reach). The home
// region is up — Heal skips the sessions of a crashed one.
func (f *Fabric) releaseSegments(ctx context.Context, s *Session) {
	var live, down []int
	for _, r := range segmentRegions(s.Stitched) {
		if f.regions[r].crashed {
			down = append(down, r)
		} else {
			live = append(live, r)
		}
	}
	late, _ := f.records(ctx, s, ctrlplane.EntryRelease, down) // only a commit can be refused
	f.d.Backlog(late...)
	f.decide(ctx, s, ctrlplane.EntryRelease, live)
}
