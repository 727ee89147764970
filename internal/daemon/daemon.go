// Package daemon is the broker service brokerd runs, as a library: New
// builds a Daemon from a topology and a Config (one field per brokerd flag),
// Handler is its HTTP face, Run drives its background jobs, and the typed
// methods (Setup, Teardown, Renew, Churn, CheckInvariants, and the read
// accessors) are the domain half of the handlers, shared with in-process
// callers such as cmd/loadgen. cmd/brokerd's package comment lists the
// endpoints.
package daemon

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"brokerset/internal/broker"
	"brokerset/internal/churn"
	"brokerset/internal/coverage"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/epoch"
	"brokerset/internal/federation"
	"brokerset/internal/obs"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// Daemon is the broker service as a value. Path queries go through the
// concurrent query plane (sharded cache + singleflight + bounded worker
// pool), QoS session setup/teardown through the control-plane two-phase
// commit, and an admin churn plane mutates the live topology and self-heals
// the coalition.
//
// Concurrency protocol: snapshot readers never lock. Every such read path
// (path queries, /stats connectivity, /brokers, healer selection input) pins
// the current epoch snapshot from pub and computes against it, and session
// reads are served from the session table, whose records are immutable once
// handed out (a heal re-paths a session into a new record). What is read
// under writeMu is the control-plane and lease counters. All mutations — churn
// application, healing, and the control plane's 2PC — serialize on writeMu
// (a plain mutex: there is exactly one logical writer at a time), build
// the next snapshot copy-on-write, and publish it with one atomic swap
// before releasing the lock.
type Daemon struct {
	cfg     Config
	top     *topology.Topology
	metrics *routing.Metrics

	qp *queryplane.QueryPlane
	// sessions is the session table: every committed flat session's current
	// record, by id. Reads are lock-free; every write (setup's Put, a heal's
	// Put of a re-pathed record, the Delete of a teardown, abort or expiry)
	// and every id lookup a plane call or a lease depends on (teardown,
	// renew) happens under writeMu, so the table, the plane and the leases
	// agree whenever it is free.
	sessions *queryplane.SessionStore
	// leases is each leased session's heartbeat deadline, by id, and
	// leaseCounts the lease counters (lease.go); both guarded by writeMu.
	// leases is nil unless LeaseTTL is set.
	leases      map[int]time.Time
	leaseCounts leaseCounts

	// now is the daemon's one clock: lease deadlines and every background
	// job's schedule are read off it. Wall time unless a test sets it; the
	// latency instruments measure on the wall clock regardless.
	now func() time.Time
	// jobs is the background schedule (see beat), in run order. Only beat
	// touches it after New.
	jobs []job

	// pub owns the atomically-published topology snapshot readers pin.
	pub *epoch.Publisher

	// writeMu serializes every mutation of shared link/broker state (the
	// metrics arrays, churn down-marks, coalition membership, the control
	// plane's ledgers and the session table). Path and session readers do
	// not take it.
	writeMu sync.Mutex
	plane   *ctrlplane.Plane

	// commit coalesces concurrent session lifecycle requests into
	// group-commit batches (see commit.go): one 2PC round and one snapshot
	// publish per batch, with degraded-mode setup shedding.
	commit *committer

	churnState *churn.State
	applier    *churn.Applier
	gen        *churn.Generator
	healer     *churn.Healer

	// fed is the in-process federation fabric (nil unless Regions is
	// set), which orders its own callers and keeps its own schedule; see
	// federation.go for the endpoints.
	fed *federation.Fabric

	// Unified observability (see initObs): metrics registry, request
	// tracer, control-plane flight recorder, HTTP front-door instruments.
	reg      *obs.Registry
	tracer   *obs.Tracer
	flight   *obs.FlightRecorder
	httpReqs *obs.Counter
	httpHist *obs.Histogram

	// SLO plane (nil unless SLO.QueryP99 is set; see slo.go): the
	// handlers feed the objectives (recording on a nil one is a no-op),
	// Run's SLO job evaluates burn rates, and a firing alert dumps the
	// flight recorder to SLO.DumpPath.
	slo         *obs.SLOEngine
	sloQuery    *obs.SLOObjective
	sloSetup    *obs.SLOObjective
	sloCrossing []*obs.SLOObjective
}

// Config is brokerd's server-side flags, one field each; the zero value of
// a field is that flag's "off".
type Config struct {
	K          int     // -k: broker budget (0 = complete alliance)
	Seed       int64   // -seed: region partition seed (with Regions)
	HealTarget float64 // -heal-target: connectivity the healer restores (0 = the initial coalition's)
	ChurnSeed  int64   // -churn-seed: churn generator seed
	SetupQueue int     // -setup-queue: group-commit high-water mark (0 = never shed)
	Pprof      bool    // -pprof: mount net/http/pprof under /debug/pprof/

	Churn      time.Duration // -churn: background churn interval
	LeaseTTL   time.Duration // -lease-ttl: heartbeat lease TTL (0 = sessions never expire)
	LeaseSweep time.Duration // -lease-sweep: expiry sweep interval (default LeaseTTL/4)

	Regions      int     // -regions: in-process federation under /federation/*
	CrossingCost float64 // -crossing-cost: federation IXP crossing cost (ms)

	SLO SLOConfig // the -slo-* flags; QueryP99 > 0 enables the plane
}

// New wires a daemon for the topology: it selects cfg.K brokers with MaxSG
// and builds the control plane, query plane and churn/self-healing plane,
// then the federation and SLO planes the config asks for,
// in that order (the per-region crossing objectives exist only for regions
// booted before the SLO plane).
func New(top *topology.Topology, cfg Config) (*Daemon, error) {
	var (
		brokers []int32
		err     error
	)
	if cfg.K <= 0 {
		brokers, err = broker.MaxSGComplete(top.Graph)
	} else {
		brokers, err = broker.MaxSG(top.Graph, cfg.K)
	}
	if err != nil {
		return nil, err
	}
	// One metrics instance backs both the epoch snapshots path queries
	// read and the control plane's capacity ledgers, so path queries
	// observe the residual capacity sessions actually reserve.
	metrics := routing.DefaultMetrics(top, nil)
	s := &Daemon{
		cfg:      cfg,
		top:      top,
		metrics:  metrics,
		sessions: queryplane.NewSessionStore(16),
		plane:    ctrlplane.New(top, metrics, brokers),
		now:      time.Now,
	}
	if cfg.LeaseTTL > 0 {
		// Committed sessions must be renewed (Renew) or the lease job
		// presumed-releases them.
		s.leases = make(map[int]time.Time)
	}
	s.churnState = churn.NewState(top, metrics)
	s.applier = churn.NewApplier(s.churnState)
	s.gen = churn.NewGenerator(s.churnState, func() []int32 { return s.plane.Brokers() }, churn.GenConfig{Seed: cfg.ChurnSeed})
	s.pub = epoch.NewPublisher(s.churnState.Snapshot(brokers, metrics.View()))

	s.qp = queryplane.Over(s.pub)

	healTarget := cfg.HealTarget
	if healTarget <= 0 {
		healTarget = coverage.SaturatedConnectivity(top.Graph, brokers)
	}
	if healTarget <= 0 || healTarget > 1 {
		return nil, fmt.Errorf("brokerd: heal target %f outside (0,1]", healTarget)
	}
	// No Invalidator: publishing the post-heal snapshot both carries the
	// new membership to readers and stales the query-plane cache (its
	// generation is the epoch).
	s.healer, err = churn.NewHealer(s.churnState, s.plane, s.sessions, nil, churn.HealerConfig{
		Target: healTarget,
		Epoch:  s.pub.Epoch,
	})
	if err != nil {
		return nil, err
	}
	s.commit = &committer{s: s, highWater: cfg.SetupQueue}
	s.initObs()

	if cfg.Regions > 0 {
		if err := s.enableFederation(); err != nil {
			return nil, err
		}
	}
	if cfg.SLO.QueryP99 > 0 {
		s.enableSLO(cfg.SLO)
	}
	s.scheduleJobs()
	return s, nil
}

// job is one background duty of the daemon, run every period on the daemon's
// clock. due is the next time it runs; zero until the first beat arms it.
type job struct {
	period time.Duration
	due    time.Time
	run    func(ctx context.Context)
}

// scheduleJobs lists the background jobs the config enables, in the order a
// beat runs them: lease sweep, churn + heal, federation clock, SLO
// evaluation.
func (s *Daemon) scheduleJobs() {
	if ttl := s.cfg.LeaseTTL; ttl > 0 {
		sweep := s.cfg.LeaseSweep
		if sweep <= 0 {
			sweep = ttl / 4
		}
		s.jobs = append(s.jobs, job{period: sweep, run: func(ctx context.Context) { s.sweepLeases(ctx) }})
	}
	if s.cfg.Churn > 0 {
		// Each run draws a Poisson burst from the seeded generator, applies
		// it, and heals.
		s.jobs = append(s.jobs, job{period: s.cfg.Churn, run: func(ctx context.Context) {
			s.writeMu.Lock()
			events := s.gen.Tick()
			s.writeMu.Unlock()
			if _, _, err := s.churnAndHeal(ctx, events, true); err != nil {
				fmt.Printf("brokerd: churn job: %v\n", err)
			}
		}})
	}
	if s.fed != nil {
		s.jobs = append(s.jobs, job{period: 100 * time.Millisecond, run: func(ctx context.Context) { s.fed.Beat(ctx) }})
	}
	if s.slo != nil {
		period := s.cfg.SLO.Every
		if period <= 0 {
			// Comfortably finer than the shortest evaluation window
			// (Window/12) so windowed deltas resolve at useful granularity
			// even on smoke-test-scale windows.
			period = max(s.cfg.SLO.Window/48, 50*time.Millisecond)
		}
		s.jobs = append(s.jobs, job{period: period, run: func(context.Context) {
			// Stamped when the counters are sampled, not when the beat
			// began: the jobs ahead of this one may have taken a while.
			for _, tr := range s.slo.Tick(s.now()) {
				s.onSLOAlert(tr)
			}
		}})
	}
}

// beat reads the daemon's clock once and runs, one at a time and in
// schedule order, every job whose due time has passed. A job's next due time
// is one period after the last; a job that fell a whole period behind is due
// one period from now instead, so a late beat never runs a job twice. The
// first beat only arms the jobs, each due one period later. The jobs share
// one goroutine, so a job keeps its period only while the jobs ahead of it
// finish within one tick: a churn + heal that outlasts a tick (it holds
// writeMu, and grows with scale) holds back the fabric beat and the SLO job
// until the next tick after it returns. Not safe for concurrent calls: Run is
// its one caller.
func (s *Daemon) beat(ctx context.Context) {
	now := s.now()
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.due.IsZero() {
			j.due = now.Add(j.period)
			continue
		}
		if now.Before(j.due) {
			continue
		}
		j.run(ctx)
		if j.due = j.due.Add(j.period); !j.due.After(now) {
			j.due = now.Add(j.period)
		}
	}
}

// Run drives the background jobs the config asks for from one ticker at the
// shortest job period, beating the daemon's clock on each tick, and returns
// once ctx is cancelled.
func (s *Daemon) Run(ctx context.Context) {
	if len(s.jobs) == 0 {
		<-ctx.Done()
		return
	}
	// Arm before the ticker starts, so a job due every tick is due by the
	// time each tick is read.
	s.beat(ctx)
	tick := time.NewTicker(slices.MinFunc(s.jobs, func(a, b job) int { return cmp.Compare(a.period, b.period) }).period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.beat(ctx)
		}
	}
}

// QueryPlane returns the query plane path queries are served through.
func (s *Daemon) QueryPlane() *queryplane.QueryPlane { return s.qp }

// Snapshot pins the current epoch snapshot. Lock-free.
func (s *Daemon) Snapshot() *epoch.Snapshot { return s.pub.Current() }

// HealerMetrics returns the healer's live counters and its repair-time
// histogram (healer_repair_seconds).
func (s *Daemon) HealerMetrics() *churn.HealerMetrics { return &s.healer.Metrics }

// PlaneStats copies the control plane's counters under the write mutex
// that orders its mutations.
func (s *Daemon) PlaneStats() ctrlplane.Stats {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.plane.Stats()
}

// Sessions lists every live session's current record, ordered by id.
// Lock-free: a record's identity and route never change once handed out.
func (s *Daemon) Sessions() []*ctrlplane.Session { return s.sessions.List() }

// Session returns session id's current record; false means the table does
// not hold it. Lock-free, like Sessions.
func (s *Daemon) Session(id int) (*ctrlplane.Session, bool) { return s.sessions.Get(id) }

// CheckInvariants checks the control plane's conservation invariants
// against the live session table.
func (s *Daemon) CheckInvariants() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.plane.CheckInvariants(s.sessions.List())
}

// publishLocked builds the next snapshot from the current state and
// publishes it. Callers hold writeMu.
func (s *Daemon) publishLocked(ctx context.Context) {
	s.pub.Publish(ctx, s.churnState.Snapshot(s.plane.Brokers(), s.metrics.View()))
}

// publishIfMoved publishes the successor of a lifecycle round — one that
// mutated reservations, never the graph or membership, so the capacity-only
// publish applies — iff the plane's version moved past before. Callers hold
// writeMu.
func (s *Daemon) publishIfMoved(ctx context.Context, before uint64) {
	if s.plane.Version() != before {
		s.pub.PublishView(ctx, s.metrics.View())
	}
}

// churnAndHeal applies a burst of churn events and runs one heal pass, all
// under the write mutex. Either half may be empty (nil events = heal
// only). It backs both Churn and the background churn job.
// Publication discipline: the damage snapshot is published as soon as the
// events land (readers must stop routing over failed links before the
// heal finishes), and a second snapshot is published after a heal that
// changed anything.
func (s *Daemon) churnAndHeal(ctx context.Context, events []churn.Event, heal bool) (churn.BlastRadius, *churn.HealReport, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	blast, err := s.applier.ApplyAll(events)
	if err != nil {
		return blast, nil, err
	}
	s.healer.Metrics.EventsApplied.Add(uint64(len(events)))
	// Any applied damage becomes visible (and stales cached paths, via the
	// epoch generation) even before healing.
	if blast.Size() > 0 || blast.BrokerPlane {
		s.publishLocked(ctx)
	}
	if !heal {
		return blast, nil, nil
	}
	hctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	// A session whose heartbeats stopped is released, not repaired: its
	// capacity is free before the repair starts. A heal's abort drops its
	// session's deadline with the record; a repath keeps the id, and so the
	// deadline.
	s.expireLapsed(hctx)
	// Churn damage comes with its blast radius, so the healer repairs the
	// coalition with the localized incremental path (falling back to a full
	// reselect only when the quality floor is breached). A heal-only call
	// (nil events) has no blast information and runs the full maintain.
	var rep *churn.HealReport
	if len(events) > 0 {
		rep, err = s.healer.HealWithBlast(hctx, blast)
	} else {
		rep, err = s.healer.Heal(hctx)
	}
	if rep != nil && rep.SessionsAborted > 0 {
		for id := range s.leases { // the aborted sessions' deadlines go too
			if _, ok := s.sessions.Get(id); !ok {
				delete(s.leases, id)
			}
		}
	}
	if rep != nil && healChangedState(rep) {
		s.publishLocked(ctx)
	}
	return blast, rep, err
}

// healChangedState reports whether a heal pass mutated shared state (so a
// new snapshot must be published). A no-op maintain pass leaves the
// current snapshot — and every session staleness stamp keyed to its epoch
// — valid.
func healChangedState(rep *churn.HealReport) bool {
	return len(rep.BrokersAdded) > 0 || len(rep.BrokersRemoved) > 0 ||
		len(rep.BrokersRecovered) > 0 ||
		rep.SessionsRepaired > 0 || rep.SessionsAborted > 0
}

// ChurnResult is what one Churn call did; it is also the POST /churn
// response body.
type ChurnResult struct {
	Applied int               `json:"applied"`
	Events  []churn.Event     `json:"events"`
	Blast   churn.BlastRadius `json:"blast"`
	Heal    *churn.HealReport `json:"heal,omitempty"`
}

// Churn applies events plus generate more drawn from the seeded generator,
// then heals the coalition unless heal is false (damage without repair).
func (s *Daemon) Churn(ctx context.Context, events []churn.Event, generate int, heal bool) (ChurnResult, error) {
	if generate > 0 {
		s.writeMu.Lock()
		gen, err := s.gen.GenerateTrace(generate)
		s.writeMu.Unlock()
		if err != nil {
			return ChurnResult{}, err
		}
		events = append(events, gen...)
	}
	blast, rep, err := s.churnAndHeal(ctx, events, heal)
	if err != nil {
		return ChurnResult{}, err
	}
	return ChurnResult{Applied: len(events), Events: events, Blast: blast, Heal: rep}, nil
}

// opTimeout bounds one control-plane operation (2PC retries included) so a
// sick coalition cannot pin the state write lock indefinitely.
const opTimeout = 2 * time.Second

// Setup establishes a session of gbps from src to dst and records it in
// the session table. Path computation is lock-free: it pins the current
// epoch snapshot and searches its frozen view, so concurrent path queries
// are never blocked behind it. The commit itself goes through the group
// committer (commit.go): concurrent setups coalesce into one 2PC round and
// one snapshot publish per batch, and the staleness fallbacks (stale-epoch
// retry against live state, post-commit damage repair) run inside the batch
// leader, which also records the session in the table before it lets go of
// writeMu. Setup answers with the session's record. Degraded mode returns
// errSetupShed without touching the plane.
func (s *Daemon) Setup(ctx context.Context, src, dst int, gbps float64) (*ctrlplane.Session, error) {
	op := &pendingOp{req: sessionRequest{Src: src, Dst: dst, Gbps: gbps}, snapID: s.pub.Epoch(), done: make(chan struct{})}
	// Resolve the path through the query-plane cache (stale entries
	// revalidate in O(hops) against the pinned snapshot — setup storms over
	// popular routes skip the full search), inline and unmetered. The
	// session's bandwidth is the query's floor: the cached minimum-latency
	// path answers it whenever it has the bandwidth (constraint dominance),
	// and when it does not the search routes around the thin link instead of
	// handing the committer a path it must refuse.
	path, _, err := s.qp.Resolve(ctx, src, dst, routing.Options{}.Reserving(gbps))
	switch {
	case err == nil:
		op.path = path.Nodes
	case errors.Is(err, routing.ErrNoPath):
		op.noPath = err
	}
	err = s.commit.submit(ctx, op)
	if err == nil {
		err = op.err
	}
	if err != nil {
		reason := "conflict"
		if errors.Is(err, errSetupShed) {
			reason = "shed"
		}
		s.refuseSpan(ctx, "brokerd.setup_refused", reason)
		s.sloSetup.Record(false, obs.TraceIDFrom(ctx))
		return nil, err
	}
	s.sloSetup.Record(true, 0)
	return op.sess, nil
}

// errNoSession is Teardown's answer for an id the session table does not
// hold: never set up, already released, or expired.
var errNoSession = errors.New("brokerd: no such session")

// Teardown releases session id through the group committer, whose leader
// takes the id's current record out of the table. Teardowns are never shed —
// they shrink load.
func (s *Daemon) Teardown(ctx context.Context, id int) error {
	op := &pendingOp{teardown: true, id: id, done: make(chan struct{})}
	if err := s.commit.submit(ctx, op); err != nil {
		return err
	}
	return op.err
}

// Renew heartbeats session id's lease: a full TTL from now, even for a
// lease that lapsed and was not yet swept. False means the lease is gone —
// never granted, torn down, or already swept. Renewals never queue and are
// never shed: in degraded mode keeping live sessions alive (and letting
// abandoned ones expire) is exactly the work that shrinks the plane back
// under its high-water mark. The lease is keyed by id, so a heal that
// re-paths the session changes nothing here.
func (s *Daemon) Renew(id int) bool {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	_, held := s.sessions.Get(id)
	if _, leased := s.leases[id]; !held || !leased {
		s.leaseCounts.misses++
		return false
	}
	s.grantLease(id)
	s.leaseCounts.renewals++
	return true
}
