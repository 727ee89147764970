package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"brokerset/internal/broker"
	"brokerset/internal/churn"
	"brokerset/internal/coverage"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/epoch"
	"brokerset/internal/federation"
	"brokerset/internal/graph"
	"brokerset/internal/obs"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// stack is brokerd's server composed in-process, wired the way
// cmd/brokerd's newServer and enableFederation wire it (brokerd is package
// main, so it cannot be imported). Every call INTO a layer — including the
// Compute and Revalidate closures handed to the query plane — runs inside a
// harness span. What it leaves out is what brokerd.http_residual_us then
// measures: HTTP parsing, JSON encoding, loopback, the group committer's
// queue and the federation's background tick loop.
type stack struct {
	tr *tracer
	// obsTracer and flight are brokerd's always-on observability, so layer
	// self times include the spans and flight records the daemon pays for.
	obsTracer *obs.Tracer

	metrics  *routing.Metrics
	plane    *ctrlplane.Plane
	state    *churn.State
	applier  *churn.Applier
	gen      *churn.Generator
	healer   *churn.Healer
	pub      *epoch.Publisher
	qp       *queryplane.QueryPlane
	sessions *queryplane.SessionStore

	fabric      *federation.Fabric
	fedSessions map[int]*federation.Session
}

// Defaults of the brokerd flags the benchmark leaves alone.
const (
	churnSeed      = 42
	crossingCostMs = 2.0
	opTimeout      = 2 * time.Second
)

func newStack(tr *tracer, t tier, top *topology.Topology, regions int) (*stack, error) {
	brokers, err := broker.MaxSG(top.Graph, t.k)
	if err != nil {
		return nil, err
	}
	s := &stack{
		tr: tr, obsTracer: obs.NewTracer(4096),
		metrics:  routing.DefaultMetrics(top, nil),
		sessions: queryplane.NewSessionStore(16),
	}
	flight := obs.NewFlightRecorder(4096)
	s.plane = ctrlplane.New(top, s.metrics, brokers)
	s.plane.SetFlightRecorder(flight)
	s.state = churn.NewState(top, s.metrics)
	s.applier = churn.NewApplier(s.state)
	s.gen = churn.NewGenerator(s.state, func() []int32 { return s.plane.Brokers() }, churn.GenConfig{Seed: churnSeed})
	s.pub = epoch.NewPublisher(s.state.Snapshot(brokers, s.metrics.View()))
	s.qp, err = queryplane.New(queryplane.Config{
		Generation: s.pub.Epoch,
		Revalidate: func(p *routing.Path, opts routing.Options, gen uint64) (ok bool) {
			s.tr.do("epoch.path_valid", func() {
				snap := s.pub.Current()
				ok = snap.ID() == gen && snap.PathValid(p, opts)
			})
			return ok
		},
		Compute: func(ctx context.Context, src, dst int, opts routing.Options) (p *routing.Path, err error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s.tr.do("routing.best_path", func() {
				if p, err = s.pub.Current().BestPath(src, dst, opts); err != nil {
					s.tr.rename("routing.nopath")
				}
			})
			return p, err
		},
	})
	if err != nil {
		return nil, err
	}
	s.healer, err = churn.NewHealer(s.state, s.plane, s.sessions, nil, churn.HealerConfig{
		Target: coverage.SaturatedConnectivity(top.Graph, brokers),
		Epoch:  s.pub.Epoch,
	})
	if err != nil {
		return nil, err
	}
	if regions > 0 {
		s.fabric, err = federation.New(top, federation.Config{
			Regions: regions, BrokerBudget: t.k, CrossingCostMs: crossingCostMs,
			Seed: topoSeed, Metrics: s.metrics,
		})
		if err != nil {
			return nil, err
		}
		s.fabric.SetFlightRecorder(flight)
		s.fabric.SetTracer(s.obsTracer)
		s.fedSessions = make(map[int]*federation.Session)
	}
	return s, nil
}

// exec performs one op the way its brokerd handler does and answers with
// the status that handler would send.
func (s *stack) exec(o op, sess int) reply {
	// brokerd's HTTP middleware roots an obs trace per request; the layers
	// below extend it, and that cost belongs to them.
	ctx, root := s.obsTracer.Root(context.Background(), "bench "+o.kind.String(), 0)
	var r reply
	r.rootNs = s.tr.op("op."+o.kind.String(), func() {
		switch o.kind {
		case opPath:
			r.status = s.path(ctx, o)
		case opSetup:
			r.status, r.sess = s.setup(ctx, o)
		case opTeardown:
			r.status = s.teardown(ctx, sess)
		case opChurn:
			r.status = s.churn(ctx)
		case opFedPath:
			r.status = s.fedPath(ctx, o, "federation.stitch_cold")
		case opFedPathWarm:
			r.status = s.fedPath(ctx, o, "federation.stitch_warm")
		case opFedSetup:
			r.status, r.sess = s.fedSetup(ctx, o)
		case opFedTeardown:
			r.status = s.fedTeardown(ctx, sess)
		}
	})
	root.End()
	return r
}

func (s *stack) path(ctx context.Context, o op) int {
	var err error
	s.tr.do("queryplane.query", func() {
		_, _, err = s.qp.QueryBid(ctx, int(o.src), int(o.dst), routing.Options{}, 0)
	})
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, queryplane.ErrShed):
		return http.StatusTooManyRequests
	}
	return http.StatusNotFound
}

// publishView is the commit path's publish: reservations changed, the
// graph and membership did not.
func (s *stack) publishView(ctx context.Context) {
	var next *epoch.Snapshot
	s.tr.do("epoch.snapshot_build", func() { next = s.pub.Current().WithView(s.metrics.View()) })
	s.tr.do("epoch.publish", func() { s.pub.Publish(ctx, next) })
}

// setup mirrors server.setup plus a one-op committer batch.
func (s *stack) setup(ctx context.Context, o op) (int, int) {
	var path []int32
	s.tr.do("queryplane.resolve", func() {
		if p, _, err := s.qp.Resolve(ctx, int(o.src), int(o.dst), routing.Options{}); err == nil {
			path = p.Nodes
		}
	})
	cctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	before := s.plane.Version()
	var (
		sess *ctrlplane.Session
		err  error
	)
	if path != nil {
		s.tr.do("ctrlplane.commit_batch", func() {
			res := s.plane.CommitBatch(cctx, []ctrlplane.BatchOp{{Kind: ctrlplane.BatchSetup, Path: path, Bandwidth: sessionGbps}})
			sess, err = res[0].Session, res[0].Err
		})
	} else {
		// The pinned snapshot had no dominated path: live state decides.
		s.tr.do("ctrlplane.setup", func() {
			sess, err = s.plane.Setup(cctx, int(o.src), int(o.dst), sessionGbps, routing.Options{})
		})
	}
	if s.plane.Version() != before {
		s.publishView(ctx)
	}
	if err != nil {
		return http.StatusConflict, 0
	}
	s.sessions.Put(sess)
	return http.StatusCreated, sess.ID
}

func (s *stack) teardown(ctx context.Context, id int) int {
	sess, ok := s.sessions.Delete(id)
	if !ok {
		return http.StatusNotFound
	}
	cctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	before := s.plane.Version()
	var err error
	s.tr.do("ctrlplane.teardown_batch", func() {
		err = s.plane.CommitBatch(cctx, []ctrlplane.BatchOp{{Kind: ctrlplane.BatchTeardown, Session: sess}})[0].Err
	})
	if s.plane.Version() != before {
		s.publishView(ctx)
	}
	if err != nil {
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

// publishState is the churn path's publish: a full snapshot of the
// down-marks and membership.
func (s *stack) publishState(ctx context.Context) {
	var next *epoch.Snapshot
	s.tr.do("epoch.snapshot_build", func() { next = s.state.Snapshot(s.plane.Brokers(), s.metrics.View()) })
	s.tr.do("epoch.publish", func() { s.pub.Publish(ctx, next) })
}

// churn mirrors handleChurn + churnAndHeal for {"generate": churnPerPost}.
func (s *stack) churn(ctx context.Context) int {
	var (
		events []churn.Event
		blast  churn.BlastRadius
		rep    *churn.HealReport
		err    error
	)
	s.tr.do("churn.generate", func() { events, err = s.gen.GenerateTrace(churnPerPost) })
	if err != nil {
		return http.StatusBadRequest
	}
	s.tr.do("churn.apply", func() { blast, err = s.applier.ApplyAll(events) })
	if err != nil {
		return http.StatusBadRequest
	}
	s.healer.Metrics.EventsApplied.Add(uint64(len(events)))
	// The live graph is rebuilt lazily by its first reader after a
	// mutation (the snapshot build, else the healer). Asking for it here
	// gives the rebuild its own span and leaves those readers a cache hit.
	s.tr.do("churn.live_graph", func() { s.state.LiveGraph() })
	if blast.Size() > 0 || blast.BrokerPlane {
		s.publishState(ctx)
	}
	hctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	s.tr.do("churn.heal", func() { rep, err = s.healer.HealWithBlast(hctx, blast) })
	if rep != nil && (len(rep.BrokersAdded) > 0 || len(rep.BrokersRemoved) > 0 || len(rep.BrokersRecovered) > 0 ||
		rep.SessionsRepaired > 0 || rep.SessionsAborted > 0) {
		s.publishState(ctx)
	}
	if err != nil {
		return http.StatusBadRequest
	}
	return http.StatusOK
}

func (s *stack) fedPath(ctx context.Context, o op, spanName string) int {
	var err error
	s.tr.do(spanName, func() { _, err = s.fabric.StitchPath(ctx, o.src, o.dst, routing.Options{}) })
	var shed *federation.ShedError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &shed):
		return http.StatusTooManyRequests
	case errors.Is(err, federation.ErrNoRoute):
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func (s *stack) fedSetup(ctx context.Context, o op) (int, int) {
	cctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var (
		sess *federation.Session
		err  error
	)
	s.tr.do("federation.setup", func() { sess, err = s.fabric.Setup(cctx, o.src, o.dst, sessionGbps, routing.Options{}) })
	if err != nil {
		return http.StatusConflict, 0
	}
	s.fedSessions[sess.ID] = sess
	return http.StatusCreated, sess.ID
}

func (s *stack) fedTeardown(ctx context.Context, id int) int {
	sess, ok := s.fedSessions[id]
	if !ok {
		return http.StatusNotFound
	}
	delete(s.fedSessions, id)
	cctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var err error
	s.tr.do("federation.teardown", func() { err = s.fabric.Teardown(cctx, sess) })
	if err != nil {
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

// timeKernels is the [K] source: timed calls into the public functions the
// daemon's boot and heal paths are built from, at the run's tier. Each is
// the median of three calls, except the two that take longest.
func timeKernels(t tier, top *topology.Topology) (map[string]float64, error) {
	g := top.Graph
	workers := runtime.NumCPU()
	out := make(map[string]float64)
	var err error
	timed := func(name string, n int, fn func() error) {
		var ms []float64
		for i := 0; i < n && err == nil; i++ {
			start := time.Now()
			if e := fn(); e != nil {
				err = fmt.Errorf("%s: %w", name, e)
			}
			ms = append(ms, float64(time.Since(start))/1e6)
		}
		out[name] = median(ms)
	}

	timed("topology.generate_ms", 1, func() error {
		_, e := topology.GenerateTier(t.name, topoSeed)
		return e
	})
	var brokers []int32
	timed("broker.maxsg_ms", 3, func() (e error) {
		brokers, e = broker.MaxSGParallel(g, t.k, workers)
		return e
	})
	timed("broker.greedy_mcb_ms", 3, func() error {
		_, e := broker.GreedyMCBParallel(g, t.k, workers)
		return e
	})
	var metrics *routing.Metrics
	timed("routing.default_metrics_ms", 3, func() error {
		metrics = routing.DefaultMetrics(top, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	timed("ctrlplane.new_ms", 3, func() error {
		ctrlplane.New(top, metrics, brokers)
		return nil
	})
	timed("federation.new_ms", 1, func() error {
		_, e := federation.New(top, federation.Config{
			Regions: 3, BrokerBudget: t.k, CrossingCostMs: crossingCostMs, Seed: topoSeed, Metrics: metrics,
		})
		return e
	})
	target := coverage.SaturatedConnectivity(g, brokers)
	timed("coverage.saturated_connectivity_ms", 3, func() error {
		coverage.SaturatedConnectivity(g, brokers)
		return nil
	})
	// One broker failure repaired locally, with the healer's options. The
	// victim is the median broker in selection order: the first few are
	// hubs whose blast pool is ten times the typical one.
	victim := brokers[len(brokers)/2]
	avoid := make([]bool, g.NumNodes())
	avoid[victim] = true
	timed("broker.maintain_incremental_ms", 3, func() error {
		_, e := broker.MaintainIncremental(g, brokers, []int32{victim}, broker.RepairOptions{Target: target, Avoid: avoid})
		return e
	})
	bfs := graph.NewBitBFS(g)
	hub := []int32{int32(g.MaxDegreeNode())}
	timed("graph.bitbfs_flood_ms", 3, func() error {
		bfs.Reset()
		bfs.Flood(hub)
		return nil
	})
	st := coverage.NewState(g)
	nodes := make([]int32, g.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	gains := make([]int, len(nodes))
	timed("coverage.gain_batch_ms", 3, func() error {
		st.GainBatch(nodes, gains, workers)
		return nil
	})
	return out, err
}

// replayPlan is the first quarter of every client's executed ops, merged
// into one single-threaded order by relative position in the client's
// stream, so that readers stay interleaved with writers.
type replayStep struct {
	client, index int
	op            op
}

func replayPlan(results [][]result) []replayStep {
	var plan []replayStep
	for c, rs := range results {
		n := len(rs) / 4
		for i := 0; i < n; i++ {
			plan = append(plan, replayStep{c, i, rs[i].op})
		}
	}
	pos := func(s replayStep) float64 { return (float64(s.index) + 0.5) / float64(len(results[s.client])) }
	sort.SliceStable(plan, func(a, b int) bool { return pos(plan[a]) < pos(plan[b]) })
	return plan
}

// replay sets a fresh stack up like the daemon was and runs the plan on it.
// It returns the executed steps' results, index-aligned with plan; the
// spans are left in tr.
func replay(tr *tracer, cfg runConfig, top *topology.Topology, cands []pair, plan []replayStep) ([]result, error) {
	s, err := newStack(nil, cfg.tier, top, cfg.w.regions)
	if err != nil {
		return nil, err
	}
	if _, err := setUp(s, cands, cfg.hot, cfg.resident); err != nil {
		return nil, err
	}
	s.tr = tr // set-up stays out of the trace, as it stays off the clock
	cycles := make([]cycle, numClients)
	out := make([]result, 0, len(plan))
	for _, step := range plan {
		res := cycles[step.client].step(s, step.op)
		out = append(out, res)
		if tr != nil && step.op.kind == opFedPath && res.status == http.StatusOK {
			s.exec(op{opFedPathWarm, step.op.src, step.op.dst}, 0)
		}
	}
	return out, nil
}
