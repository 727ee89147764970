package epoch

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// Publisher owns the single atomic pointer readers load snapshots from.
// Publication is serialized (writers already hold brokerd's write mutex,
// but the Publisher guards itself anyway so misuse can't tear the epoch
// sequence); reads are a single atomic load, wait-free and never blocked
// by an in-flight publish.
type Publisher struct {
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]

	// Metrics are nil until RegisterMetrics; all paths nil-check.
	epochGauge *obs.Gauge
	published  *obs.Counter
	age        *obs.Histogram
}

// NewPublisher creates a publisher primed with an initial snapshot at
// epoch 1, so Current never returns nil.
func NewPublisher(initial *Snapshot) *Publisher {
	p := &Publisher{}
	initial.id = 1
	initial.born = time.Now()
	p.cur.Store(initial)
	return p
}

// Current pins the latest published snapshot. The returned snapshot stays
// valid (and unchanging) for as long as the caller holds it, regardless of
// later publishes.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }

// Epoch returns the current epoch number without pinning the snapshot.
func (p *Publisher) Epoch() uint64 { return p.cur.Load().id }

// Publish assigns next the successor epoch number and swaps it in as the
// current snapshot. Returns the assigned epoch. The ctx is used only for
// tracing (a publish span when the context carries a trace).
func (p *Publisher) Publish(ctx context.Context, next *Snapshot) uint64 {
	_, sp := obs.StartSpan(ctx, "epoch.publish")
	p.mu.Lock()
	prev := p.cur.Load()
	next.id = prev.id + 1
	next.born = time.Now()
	p.cur.Store(next)
	p.mu.Unlock()

	if p.epochGauge != nil {
		p.epochGauge.Set(int64(next.id))
		p.published.Inc()
		p.age.Observe(next.born.Sub(prev.born))
	}
	sp.AnnotateInt("epoch", int64(next.id))
	sp.End()
	return next.id
}

// PublishView publishes the capacity-only successor of the current snapshot:
// reservations moved, the live graph, down-marks and membership did not, so
// the successor shares everything but the metrics view (Snapshot.WithView).
// This is the publish of a commit round. The caller's serialization must
// cover whatever made it decide that only capacity changed, and the call.
func (p *Publisher) PublishView(ctx context.Context, view *routing.View) uint64 {
	return p.Publish(ctx, p.Current().WithView(view))
}

// RegisterMetrics exposes the publisher's health on reg:
//
//	epoch_current              gauge      current epoch number
//	epoch_published_total      counter    snapshots published since start
//	epoch_snapshot_age_seconds histogram  lifetime of replaced snapshots
//
// The age histogram is the staleness signal: its quantiles say how old the
// view a reader pins typically is when the next one lands.
func (p *Publisher) RegisterMetrics(reg *obs.Registry) {
	p.epochGauge = reg.Gauge("epoch_current", "Current topology snapshot epoch number.")
	p.published = reg.Counter("epoch_published_total", "Topology snapshots published since process start.")
	p.age = reg.Histogram("epoch_snapshot_age_seconds", "Lifetime of a snapshot from publish until replacement.")
	p.epochGauge.Set(int64(p.Epoch()))
}
