package churn

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"brokerset/internal/broker"
	"brokerset/internal/coverage"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
)

// Invalidator is anything whose cached state must be staled after a heal
// (the query plane's generation bump).
type Invalidator interface {
	Invalidate()
}

// HealerConfig parameterizes the healer.
type HealerConfig struct {
	// Target is the saturated connectivity the repaired broker set must
	// reach on the live graph. Required, in (0,1].
	Target float64
	// Epoch returns the current topology epoch (non-zero). Required: the
	// session sweep skips sessions already verified at that epoch and stamps
	// the ones it clears, so repeated heals within one epoch don't re-walk
	// every session's path.
	Epoch func() uint64
}

// HealReport summarizes one heal pass.
type HealReport struct {
	// Connectivity is the live-graph saturated connectivity of the
	// repaired coalition; TargetMet reports whether it reached the target
	// (the live graph may be too broken for any coalition to).
	Connectivity float64 `json:"connectivity"`
	TargetMet    bool    `json:"target_met"`
	// BrokersAdded/BrokersRemoved are the membership delta.
	BrokersAdded   []int32 `json:"brokers_added"`
	BrokersRemoved []int32 `json:"brokers_removed"`
	// BrokersRecovered are crashed coalition members whose process came
	// back: the healer replayed their WALs instead of replacing them.
	BrokersRecovered []int32 `json:"brokers_recovered,omitempty"`
	// SickAvoided are brokers whose control-plane circuit breaker is open
	// (persistently unresponsive, not known-dead): selection avoided them.
	SickAvoided []int32 `json:"sick_avoided,omitempty"`
	// Incremental reports that the pass used blast-radius-localized
	// repair; FullReselect that the localized repair breached the quality
	// floor and reconvened the full selection.
	Incremental  bool `json:"incremental,omitempty"`
	FullReselect bool `json:"full_reselect,omitempty"`
	// Session repair outcome counts.
	SessionsChecked  int `json:"sessions_checked"`
	SessionsRepaired int `json:"sessions_repaired"`
	SessionsAborted  int `json:"sessions_aborted"`
	// Duration is the wall time of the pass.
	Duration time.Duration `json:"duration_ns"`
}

// HealerMetrics is the cumulative, atomically-updated healer counter set
// exported through /metrics.
type HealerMetrics struct {
	EventsApplied      atomic.Uint64
	HealPasses         atomic.Uint64
	MaintainPasses     atomic.Uint64
	IncrementalRepairs atomic.Uint64
	FullReselects      atomic.Uint64
	BrokerAdds         atomic.Uint64
	BrokerRemoves      atomic.Uint64
	BrokerRecoveries   atomic.Uint64
	SessionsRepaired   atomic.Uint64
	SessionsAborted    atomic.Uint64
	// Repairs is the distribution of heal-pass wall times
	// (healer_repair_seconds).
	Repairs obs.Histogram
}

// RegisterMetrics exposes the healer counters and the repair-time histogram
// on reg under the healer_ namespace. The counters are already atomic, so
// the collector just adapts them to samples at scrape time.
func (m *HealerMetrics) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterHistogram("healer_repair_seconds", "heal-pass wall time", &m.Repairs)
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		for _, c := range []struct {
			name, help string
			v          *atomic.Uint64
		}{
			{"healer_events_applied_total", "churn events applied", &m.EventsApplied},
			{"healer_heal_passes_total", "heal passes run", &m.HealPasses},
			{"healer_maintain_passes_total", "maintain-only passes run", &m.MaintainPasses},
			{"healer_incremental_repairs_total", "blast-radius-localized repairs", &m.IncrementalRepairs},
			{"healer_full_reselects_total", "incremental repairs that fell back to full reselect", &m.FullReselects},
			{"healer_broker_adds_total", "brokers added to the coalition", &m.BrokerAdds},
			{"healer_broker_removes_total", "brokers removed from the coalition", &m.BrokerRemoves},
			{"healer_broker_recoveries_total", "crashed brokers recovered", &m.BrokerRecoveries},
			{"healer_sessions_repaired_total", "damaged sessions re-pathed", &m.SessionsRepaired},
			{"healer_sessions_aborted_total", "damaged sessions aborted", &m.SessionsAborted},
		} {
			emit(obs.Sample{Name: c.name, Help: c.help, Kind: obs.KindCounter, Value: float64(c.v.Load())})
		}
	})
}

// Healer repairs the broker plane after churn damage. One Heal pass:
//
//  1. Re-select the coalition on the live graph with MaintainAvoiding
//     (failed brokers and departed nodes barred), keeping survivors and
//     greedily adding replacements until the connectivity target holds.
//  2. Push the new membership into the control plane (ledger migration).
//  3. Sweep the session store: every damaged session is re-pathed through
//     2PC and its new record replaces the old one in the store, or it is
//     cleanly aborted (and dropped from the store) when no dominated path
//     survives.
//  4. Invalidate the query plane so stale cached paths die.
//
// Callers serialize Heal against control-plane writes and path computation
// (brokerd holds its state write lock).
type Healer struct {
	cfg      HealerConfig
	state    *State
	plane    *ctrlplane.Plane
	sessions *queryplane.SessionStore
	inval    Invalidator
	Metrics  HealerMetrics
}

// NewHealer wires a healer. sessions and inval may be nil (no session
// sweep / no cache to stale) for headless simulation uses.
func NewHealer(state *State, plane *ctrlplane.Plane, sessions *queryplane.SessionStore, inval Invalidator, cfg HealerConfig) (*Healer, error) {
	if cfg.Target <= 0 || cfg.Target > 1 {
		return nil, fmt.Errorf("churn: healer target %f outside (0,1]", cfg.Target)
	}
	if state == nil || plane == nil || cfg.Epoch == nil {
		return nil, fmt.Errorf("churn: healer needs a state, a control plane and an epoch source")
	}
	return &Healer{cfg: cfg, state: state, plane: plane, sessions: sessions, inval: inval}, nil
}

// Heal runs one full repair pass and returns its report. ctx bounds the
// 2PC repath traffic. It is not safe for concurrent use with control-plane
// writes; callers hold the state lock.
func (h *Healer) Heal(ctx context.Context) (*HealReport, error) {
	return h.heal(ctx, nil)
}

// HealWithBlast runs one repair pass localized to a churn blast radius:
// instead of the full Maintain grow/prune, broker replacement candidates
// come from the neighbourhood of the damaged nodes/links, with a full
// reselect when localized repair cannot hold the target (the floor is
// strict: no Epsilon below Target is accepted). This is the fast path brokerd's
// churn loop uses — at Internet scale a heal pass is dominated by
// selection, not session re-pathing.
func (h *Healer) HealWithBlast(ctx context.Context, blast BlastRadius) (*HealReport, error) {
	return h.heal(ctx, &blast)
}

func (h *Healer) heal(ctx context.Context, blast *BlastRadius) (*HealReport, error) {
	start := time.Now()
	rep := &HealReport{}
	live := h.state.LiveGraph()

	// Crash-mark failed brokers in the control plane so any conflicting
	// in-flight protocol activity sees them dead, and recover members whose
	// process came back since the last pass: their WAL replays the exact
	// reservation ledger, so they rejoin instead of being replaced.
	for _, b := range h.state.DownBrokers() {
		h.plane.Crash(b)
	}
	for _, b := range h.plane.Brokers() {
		if h.plane.Crashed(b) && !h.state.BrokerDown(b) && !h.state.NodeDown(b) {
			h.plane.Recover(b)
			rep.BrokersRecovered = append(rep.BrokersRecovered, b)
			h.Metrics.BrokerRecoveries.Add(1)
		}
	}

	// Brokers with an open circuit breaker are unresponsive even though
	// churn hasn't declared them dead: bar them from selection too.
	sick := h.plane.SickBrokers()
	rep.SickAvoided = sick
	avoid := h.state.AvoidMask()
	for _, b := range sick {
		if int(b) < len(avoid) {
			avoid[b] = true
		}
	}

	// Survivors: current coalition minus failed brokers, departed nodes,
	// and circuit-open members.
	var survivors []int32
	for _, b := range h.plane.Brokers() {
		if !h.state.BrokerDown(b) && !h.state.NodeDown(b) && int(b) < len(avoid) && !avoid[b] {
			survivors = append(survivors, b)
		}
	}

	var res *broker.MaintainResult
	var err error
	if blast != nil {
		// Localized repair: seed the candidate pool with every node whose
		// incident topology changed — churned nodes, severed-link
		// endpoints, and dead broker processes.
		seeds := append([]int32(nil), blast.Nodes...)
		for _, l := range blast.Links {
			seeds = append(seeds, l[0], l[1])
		}
		seeds = append(seeds, h.state.DownBrokers()...)
		res, err = broker.MaintainIncremental(live, survivors, seeds, broker.RepairOptions{
			Target: h.cfg.Target,
			Avoid:  avoid,
		})
		rep.Incremental = true
		if res != nil && res.FullReselect {
			rep.FullReselect = true
			h.Metrics.FullReselects.Add(1)
		} else if err == nil {
			h.Metrics.IncrementalRepairs.Add(1)
		}
	} else {
		res, err = broker.MaintainAvoiding(live, survivors, h.cfg.Target, avoid)
	}
	h.Metrics.MaintainPasses.Add(1)
	if err != nil {
		// Target unreachable on the damaged graph: fall back to best
		// effort — keep the survivors, still repair sessions below.
		res = &broker.MaintainResult{
			Brokers:      survivors,
			Connectivity: coverage.SaturatedConnectivity(live, survivors),
		}
	}
	rep.TargetMet = err == nil

	added, removed := h.plane.SetBrokers(res.Brokers)
	rep.BrokersAdded, rep.BrokersRemoved = added, removed
	h.Metrics.BrokerAdds.Add(uint64(len(added)))
	h.Metrics.BrokerRemoves.Add(uint64(len(removed)))
	rep.Connectivity = res.Connectivity
	if rep.Connectivity >= h.cfg.Target {
		rep.TargetMet = true
	}

	// Sweep sessions: re-path or abort everything the damage touched.
	// Sessions already verified against the current topology epoch are
	// skipped outright — staleness is keyed to snapshot publication, not to
	// wall time or heal count.
	if h.sessions != nil {
		cur := h.cfg.Epoch()
		for _, sess := range h.sessions.List() {
			if h.sessions.CheckedAt(sess.ID) == cur {
				continue
			}
			if !h.plane.SessionDamaged(sess) {
				h.sessions.Stamp(sess.ID, cur)
				continue
			}
			rep.SessionsChecked++
			next, err := h.plane.Repath(ctx, sess, routing.Options{})
			if err != nil {
				h.sessions.Delete(sess.ID)
				rep.SessionsAborted++
				h.Metrics.SessionsAborted.Add(1)
				continue
			}
			h.sessions.Put(next)
			rep.SessionsRepaired++
			h.Metrics.SessionsRepaired.Add(1)
			h.sessions.Stamp(sess.ID, cur)
		}
	}

	if h.inval != nil {
		h.inval.Invalidate()
	}
	rep.Duration = time.Since(start)
	h.Metrics.HealPasses.Add(1)
	h.Metrics.Repairs.ObserveTrace(rep.Duration, obs.TraceIDFrom(ctx))
	return rep, nil
}
