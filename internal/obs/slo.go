package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SLO burn-rate engine, Google-SRE-workbook style: each objective is a
// good/bad event ratio target, and alerting is on the BURN RATE — how many
// times faster than "exactly exhausting the error budget over the SLO
// period" the service is currently burning it. A burn rate is evaluated
// over a long and a short window simultaneously (the short window makes
// the alert reset promptly once the burn stops); the fast pair pages on
// budget-destroying incidents within minutes, the slow pair catches
// steady leaks.
//
// The engine is deliberately clock-free on the hot path: request threads
// bump two atomic counters, and a driver calls Tick(now) periodically to
// snapshot the cumulative counters into a ring from which windowed deltas
// — and therefore burn rates and alert transitions — are derived. Tests
// drive Tick with a synthetic clock, making the alert math exactly
// reproducible.

// Objective declares one service-level objective.
type Objective struct {
	// Name is the objective's identifier; prefixed with slo_ it must pass
	// CheckName (lowercase [a-z0-9_]).
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	// Target is the good-event ratio objective, in (0, 1) — e.g. 0.999
	// means at most 0.1% of events may be bad.
	Target float64 `json:"target"`
	// Latency, when > 0, makes this a latency objective: Observe
	// classifies an event as good iff its duration is <= Latency.
	Latency time.Duration `json:"latency_ns,omitempty"`
}

// AlertSeverity distinguishes the two burn-rate alert pairs.
type AlertSeverity string

// Alert severities.
const (
	SeverityFast AlertSeverity = "fast" // page: budget gone in hours
	SeveritySlow AlertSeverity = "slow" // ticket: budget gone in days
)

// AlertTransition is one alert edge produced by Tick: an objective's
// fast- or slow-burn alert started or stopped firing.
type AlertTransition struct {
	Objective string        `json:"objective"`
	Severity  AlertSeverity `json:"severity"`
	Firing    bool          `json:"firing"`
	// BurnLong/BurnShort are the burn rates over the pair's long and
	// short windows at the transition.
	BurnLong  float64 `json:"burn_long"`
	BurnShort float64 `json:"burn_short"`
	At        time.Time
}

// SLOConfig parameterizes the engine's windows and thresholds. The four
// evaluation windows all derive from BaseWindow (the fast pair's long
// window — the "1 hour" of the SRE-workbook defaults): fast = (Base,
// Base/12), slow = (6*Base, Base/2). Scaling BaseWindow down scales the
// whole alert policy for tests and CI smoke runs without touching the
// threshold math.
type SLOConfig struct {
	// BaseWindow defaults to one hour.
	BaseWindow time.Duration
}

// The SRE-workbook burn-rate thresholds: fastBurn pages (a burn that
// exhausts a 30-day budget in ~2 days), slowBurn tickets.
const (
	fastBurn = 14.4
	slowBurn = 3.0
)

// sloBadTraces is the per-objective ring of recent bad-event trace IDs.
const sloBadTraces = 8

// SLOObjective is one registered objective's live state. Observe/Record
// are safe for concurrent use and lock-free, and a no-op on a nil objective
// — the plane that would have registered it is off — like a nil
// FlightRecorder's Record.
type SLOObjective struct {
	Objective
	good atomic.Uint64
	bad  atomic.Uint64

	// Recent bad-event trace IDs (exemplars for a burning objective).
	badPos    atomic.Uint64
	badTraces [sloBadTraces]atomic.Uint64

	// Alert state, owned by Tick (engine.mu); state mirrors it atomically
	// for lock-free metric scrapes.
	fastFiring, slowFiring bool
	state                  atomic.Int32
	burnFL, burnFS         float64
	burnSL, burnSS         float64
}

// Observe records one latency-objective event, classifying it against the
// objective's latency threshold. trace (0 = untraced) is retained as an
// exemplar when the event is bad.
func (o *SLOObjective) Observe(d time.Duration, trace uint64) {
	if o != nil {
		o.Record(d <= o.Latency, trace)
	}
}

// Record records one event outcome; trace is retained when bad.
func (o *SLOObjective) Record(good bool, trace uint64) {
	if o == nil {
		return
	}
	if good {
		o.good.Add(1)
		return
	}
	o.bad.Add(1)
	if trace != 0 {
		o.badTraces[(o.badPos.Add(1)-1)%sloBadTraces].Store(trace)
	}
}

// BadTraceIDs returns the recent bad-event trace IDs, deduplicated,
// newest slots first.
func (o *SLOObjective) BadTraceIDs() []uint64 {
	seen := make(map[uint64]bool, sloBadTraces)
	out := make([]uint64, 0, sloBadTraces)
	for i := 0; i < sloBadTraces; i++ {
		if id := o.badTraces[i].Load(); id != 0 && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// sloSnap is one Tick's snapshot of every objective's cumulative counters.
type sloSnap struct {
	at   time.Time
	good []uint64
	bad  []uint64
}

// SLOEngine evaluates a set of objectives. Register objectives at wiring
// time with Add, feed them from request paths, and drive the evaluation
// clock with Tick.
type SLOEngine struct {
	cfg SLOConfig

	mu          sync.Mutex
	objs        []*SLOObjective
	ring        []sloSnap
	lastTick    time.Time
	alertsTotal uint64
	firingNow   int
}

// NewSLOEngine returns an engine with a zero cfg.BaseWindow defaulted to 1h.
func NewSLOEngine(cfg SLOConfig) *SLOEngine {
	if cfg.BaseWindow <= 0 {
		cfg.BaseWindow = time.Hour
	}
	return &SLOEngine{cfg: cfg}
}

// Add registers an objective and returns its live handle. Panics on an
// invalid name or target — programmer error, caught at wiring time like
// Registry registration.
func (e *SLOEngine) Add(o Objective) *SLOObjective {
	if err := CheckName("slo_" + o.Name); err != nil {
		panic(fmt.Sprintf("obs: bad objective name %q: %v", o.Name, err))
	}
	if o.Target <= 0 || o.Target >= 1 {
		panic(fmt.Sprintf("obs: objective %q target must be in (0,1), got %g", o.Name, o.Target))
	}
	h := &SLOObjective{Objective: o}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, x := range e.objs {
		if x.Name == o.Name {
			panic(fmt.Sprintf("obs: duplicate objective %q", o.Name))
		}
	}
	e.objs = append(e.objs, h)
	return h
}

// windows returns the four evaluation windows (fast long/short, slow
// long/short).
func (e *SLOEngine) windows() (fl, fs, sl, ss time.Duration) {
	b := e.cfg.BaseWindow
	return b, b / 12, 6 * b, b / 2
}

// Tick snapshots every objective's counters at now, re-evaluates all
// burn-rate alerts, and returns the transitions (empty almost always).
// Call it periodically — at most every shortest-window/3 or so; the
// engine tolerates any cadence, but windows are resolved at snapshot
// granularity.
func (e *SLOEngine) Tick(now time.Time) []AlertTransition {
	e.mu.Lock()
	defer e.mu.Unlock()

	snap := sloSnap{at: now, good: make([]uint64, len(e.objs)), bad: make([]uint64, len(e.objs))}
	for i, o := range e.objs {
		snap.good[i] = o.good.Load()
		snap.bad[i] = o.bad.Load()
	}
	e.ring = append(e.ring, snap)
	e.lastTick = now

	// Prune history older than the slow pair's long window; keep one
	// snapshot beyond it as the window baseline.
	_, _, sl, _ := e.windows()
	cutoff := now.Add(-sl)
	drop := 0
	for drop+1 < len(e.ring) && !e.ring[drop+1].at.After(cutoff) {
		drop++
	}
	if drop > 0 {
		e.ring = append(e.ring[:0], e.ring[drop:]...)
	}

	var out []AlertTransition
	fl, fs, _, ss := e.windows()
	for i, o := range e.objs {
		o.burnFL = e.burnLocked(i, o.Target, now, fl)
		o.burnFS = e.burnLocked(i, o.Target, now, fs)
		o.burnSL = e.burnLocked(i, o.Target, now, sl)
		o.burnSS = e.burnLocked(i, o.Target, now, ss)
		fast := o.burnFL >= fastBurn && o.burnFS >= fastBurn
		slow := o.burnSL >= slowBurn && o.burnSS >= slowBurn
		if fast != o.fastFiring {
			o.fastFiring = fast
			if fast {
				e.alertsTotal++
			}
			out = append(out, AlertTransition{Objective: o.Name, Severity: SeverityFast,
				Firing: fast, BurnLong: o.burnFL, BurnShort: o.burnFS, At: now})
		}
		if slow != o.slowFiring {
			o.slowFiring = slow
			if slow {
				e.alertsTotal++
			}
			out = append(out, AlertTransition{Objective: o.Name, Severity: SeveritySlow,
				Firing: slow, BurnLong: o.burnSL, BurnShort: o.burnSS, At: now})
		}
		switch {
		case o.fastFiring:
			o.state.Store(2)
		case o.slowFiring:
			o.state.Store(1)
		default:
			o.state.Store(0)
		}
	}
	firing := 0
	for _, o := range e.objs {
		if o.fastFiring {
			firing++
		}
		if o.slowFiring {
			firing++
		}
	}
	e.firingNow = firing
	return out
}

// burnLocked computes objective i's burn rate over the trailing window w
// ending at now: (bad ratio in window) / (error budget ratio). Requires
// e.mu. A window with no events burns at 0.
func (e *SLOEngine) burnLocked(i int, target float64, now time.Time, w time.Duration) float64 {
	if len(e.ring) == 0 {
		return 0
	}
	cur := e.ring[len(e.ring)-1]
	// Baseline: the newest snapshot at or before now-w. Events older than
	// the first snapshot are attributed to it — early history is coarse,
	// which only matters in the first few ticks after boot.
	from := now.Add(-w)
	var base sloSnap
	for j := len(e.ring) - 1; j >= 0; j-- {
		if !e.ring[j].at.After(from) {
			base = e.ring[j]
			break
		}
	}
	var g, b uint64
	if base.good != nil {
		g, b = cur.good[i]-base.good[i], cur.bad[i]-base.bad[i]
	} else {
		g, b = cur.good[i], cur.bad[i]
	}
	tot := g + b
	if tot == 0 {
		return 0
	}
	return (float64(b) / float64(tot)) / (1 - target)
}

// ObjectiveStatus is one objective's evaluated state, as served by the
// /slo endpoint.
type ObjectiveStatus struct {
	Name      string  `json:"name"`
	Help      string  `json:"help,omitempty"`
	Target    float64 `json:"target"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
	Good      uint64  `json:"good"`
	Bad       uint64  `json:"bad"`
	// Burn rates over the four windows, as of the last Tick.
	BurnFastLong  float64 `json:"burn_fast_long"`
	BurnFastShort float64 `json:"burn_fast_short"`
	BurnSlowLong  float64 `json:"burn_slow_long"`
	BurnSlowShort float64 `json:"burn_slow_short"`
	FastFiring    bool    `json:"fast_firing"`
	SlowFiring    bool    `json:"slow_firing"`
	// BudgetRemaining is the error budget fraction left over the slow
	// pair's long window (1 = untouched, <= 0 = exhausted).
	BudgetRemaining float64 `json:"budget_remaining"`
	// BadTraceIDs are recent bad-event trace exemplars — the actual worst
	// requests behind a burning objective.
	BadTraceIDs []uint64 `json:"bad_trace_ids,omitempty"`
}

// Status is the engine's full evaluated state.
type Status struct {
	At          time.Time         `json:"at"`
	BaseWindow  time.Duration     `json:"base_window_ns"`
	FastBurn    float64           `json:"fast_burn_threshold"`
	SlowBurn    float64           `json:"slow_burn_threshold"`
	AlertsTotal uint64            `json:"alerts_total"`
	Firing      int               `json:"firing"`
	Objectives  []ObjectiveStatus `json:"objectives"`
}

// Status reports every objective's counters, burn rates, and alert state
// as of the last Tick.
func (e *SLOEngine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		At:         e.lastTick,
		BaseWindow: e.cfg.BaseWindow,
		FastBurn:   fastBurn, SlowBurn: slowBurn,
		AlertsTotal: e.alertsTotal, Firing: e.firingNow,
	}
	for _, o := range e.objs {
		st.Objectives = append(st.Objectives, ObjectiveStatus{
			Name: o.Name, Help: o.Help, Target: o.Target,
			LatencyMs: float64(o.Latency) / float64(time.Millisecond),
			Good:      o.good.Load(), Bad: o.bad.Load(),
			BurnFastLong: o.burnFL, BurnFastShort: o.burnFS,
			BurnSlowLong: o.burnSL, BurnSlowShort: o.burnSS,
			FastFiring: o.fastFiring, SlowFiring: o.slowFiring,
			BudgetRemaining: 1 - o.burnSL*float64(6*e.cfg.BaseWindow)/float64(30*24*time.Hour),
			BadTraceIDs:     o.BadTraceIDs(),
		})
	}
	return st
}

// RegisterMetrics exposes the engine as slo_* metric families: per
// objective the cumulative good/bad counters, the fast/slow long-window
// burn rates, and a 0/1/2 alert state (ok/slow/fast), plus the global
// firing gauge and transition counter.
func (e *SLOEngine) RegisterMetrics(reg *Registry) {
	reg.RegisterCollector(func(emit func(Sample)) {
		e.mu.Lock()
		type row struct {
			name         string
			good, bad    uint64
			bFast, bSlow float64
			state        int32
		}
		rows := make([]row, 0, len(e.objs))
		for _, o := range e.objs {
			rows = append(rows, row{name: o.Name, good: o.good.Load(), bad: o.bad.Load(),
				bFast: o.burnFL, bSlow: o.burnSL, state: o.state.Load()})
		}
		alerts, firing := e.alertsTotal, e.firingNow
		e.mu.Unlock()

		for _, r := range rows {
			emit(Sample{Name: "slo_" + r.name + "_good_total", Help: "events meeting the objective",
				Kind: KindCounter, Value: float64(r.good)})
			emit(Sample{Name: "slo_" + r.name + "_bad_total", Help: "events violating the objective",
				Kind: KindCounter, Value: float64(r.bad)})
			emit(Sample{Name: "slo_" + r.name + "_burn_fast", Help: "burn rate over the fast (paging) long window",
				Kind: KindGauge, Value: r.bFast})
			emit(Sample{Name: "slo_" + r.name + "_burn_slow", Help: "burn rate over the slow (ticket) long window",
				Kind: KindGauge, Value: r.bSlow})
			emit(Sample{Name: "slo_" + r.name + "_alert_state", Help: "0 ok, 1 slow burn firing, 2 fast burn firing",
				Kind: KindGauge, Value: float64(r.state)})
		}
		emit(Sample{Name: "slo_alerts_firing", Help: "burn-rate alerts currently firing",
			Kind: KindGauge, Value: float64(firing)})
		emit(Sample{Name: "slo_alert_transitions_total", Help: "alert transitions into firing",
			Kind: KindCounter, Value: float64(alerts)})
	})
}
