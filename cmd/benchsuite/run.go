package main

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"brokerset/internal/stats"
	"brokerset/internal/topology"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w       *workloadSpec
	tier    tier
	seed    int64
	seconds int
	// units overrides round(rate*seconds) primary units per client; hot
	// and resident override the set-up sizes. The package's tests use them
	// to stay small.
	units, hot, resident int
	// setups is how many times set-up (boot + warm-up) runs; setup_s is
	// the median and the last instance is the one measured.
	setups  int
	brokerd string
}

func (c *runConfig) unitCount() int {
	if c.units > 0 {
		return c.units
	}
	return max(1, int(math.Round(c.w.rate*float64(c.seconds))))
}

// candidateCount is how many set-up pairs to draw: about one pair in seven
// has no dominated path and is passed over, hence the slack.
func candidateCount(cfg runConfig) int { return 2*(cfg.hot+cfg.resident) + 64 }

// phaseDeadline bounds the measured phase: a daemon much slower than the
// one the rates were calibrated on must not run into the driver's limit.
const phaseDeadline = 90 * time.Second

// runOutput is everything one untraced run produced.
type runOutput struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	// results are the executed ops per client, kept for the traced replay
	// and the paired residual.
	results [][]result
	hot     []pair
	brokers []int32
}

func (o *runOutput) problemf(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// setUp performs everything before the measured phase against ex: warm the
// hot set (the first hotN candidates answered 200) and establish the
// resident sessions from the candidates after them. It is shared by the
// HTTP run and the in-process replay, so both reach the same state.
func setUp(ex executor, cands []pair, hotN, resident int) (hot []pair, err error) {
	i := 0
	for ; i < len(cands) && len(hot) < hotN; i++ {
		if ex.exec(op{opPath, cands[i].src, cands[i].dst}, 0).status == http.StatusOK {
			hot = append(hot, cands[i])
		}
	}
	if len(hot) < hotN {
		return nil, fmt.Errorf("benchsuite: only %d of %d hot pairs answered 200", len(hot), hotN)
	}
	for n := 0; n < resident; i++ {
		if i >= len(cands) {
			return nil, fmt.Errorf("benchsuite: only %d of %d resident sessions established", n, resident)
		}
		if ex.exec(op{opSetup, cands[i].src, cands[i].dst}, 0).status == http.StatusCreated {
			n++
		}
	}
	return hot, nil
}

// runWorkload boots brokerd, sets up, drives the measured phase over
// loopback HTTP and verifies every answer off the clock.
func runWorkload(cfg runConfig, top *topology.Topology) (*runOutput, error) {
	w := cfg.w
	out := &runOutput{metrics: make(map[string]float64)}
	var cands []pair
	if cfg.hot > 0 || cfg.resident > 0 {
		var err error
		if cands, err = candidates(top, cfg.seed, candidateCount(cfg)); err != nil {
			return nil, err
		}
	}

	var (
		d               *daemon
		clients         [numClients]*httpClient
		setupS, warmupS []float64
		bootS           []float64
	)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.close()
			}
		}
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = startDaemon(cfg.brokerd, cfg.tier, w.regions); err != nil {
			return nil, err
		}
		for c := range clients {
			if clients[c] != nil {
				clients[c].close()
			}
			clients[c] = newHTTPClient(d.base)
		}
		start := time.Now()
		if out.hot, err = setUp(clients[0], cands, cfg.hot, cfg.resident); err != nil {
			return nil, err
		}
		warm := time.Since(start).Seconds()
		bootS, warmupS, setupS = append(bootS, d.bootS), append(warmupS, warm), append(setupS, d.bootS+warm)
	}
	out.metrics["setup_s"] = median(setupS)
	out.metrics["brokerd.boot_s"] = median(bootS)
	out.metrics["bench.warmup_s"] = median(warmupS)

	// Off the clock: the membership and connectivity answers are verified
	// against, and the second connection's handshake.
	var brokers []struct {
		ID int32 `json:"id"`
	}
	if err := clients[0].getJSON("/brokers", &brokers); err != nil {
		return nil, err
	}
	for _, b := range brokers {
		out.brokers = append(out.brokers, b.ID)
	}
	var stats0 struct {
		Connectivity float64 `json:"connectivity"`
	}
	if err := clients[1].getJSON("/stats", &stats0); err != nil {
		return nil, err
	}

	streams, err := buildStreams(w, top, cfg.seed, cfg.unitCount(), out.hot)
	if err != nil {
		return nil, err
	}
	nexts := make([]func() (op, bool), numClients)
	for c := range nexts {
		nexts[c] = sliceNext(streams[c])
	}
	var writerDone atomic.Bool
	if w.name == "churn_heal" {
		draw := hotReader(cfg.seed, out.hot)
		nexts[1] = func() (op, bool) {
			if writerDone.Load() {
				return op{}, false
			}
			return draw(), true
		}
	}

	m0, err := d.scrape(clients[0].hc)
	if err != nil {
		return nil, err
	}
	ps0, err := d.procStat()
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	out.results = make([][]result, numClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(phaseDeadline)
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out.results[c] = runClient(clients[c], nexts[c], deadline)
			if c == 0 {
				writerDone.Store(true)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	cpu1 := selfCPU()
	ps1, err := d.procStat()
	if err != nil {
		return nil, err
	}
	m1, err := d.scrape(clients[0].hc)
	if err != nil {
		return nil, err
	}
	// What a fixed stream had left when the deadline stopped its client was
	// attempted and failed.
	for c, s := range streams {
		if unsent := len(s) - len(out.results[c]); unsent > 0 {
			out.attempted += unsent
			out.failed += unsent - 1
			out.problemf("client %d stopped at the %v deadline with %d ops unsent", c, phaseDeadline, unsent)
		}
	}

	verifyReplies(out, w, top)
	if w.name == "churn_heal" {
		verifyAfterChurn(out, clients[0], stats0.Connectivity)
	}

	clientMetrics(out, w, wall, ps1.cpuS-ps0.cpuS, cpu1-cpu0)
	out.metrics["rss_mb"] = ps1.hwmMB
	scrapeMetrics(out.metrics, m0, m1)
	return out, nil
}

// statusFailed classifies one executed op from its status alone; answers that
// pass here are then verified by content.
func statusFailed(r *result) bool {
	switch r.status {
	case http.StatusOK, http.StatusCreated:
		return false
	case http.StatusNotFound, http.StatusConflict:
		// A correct "no path" is an answer, not a failure: 404 on a path
		// read, 409 on a setup whose pair has no dominated path.
		k := r.op.kind
		return k == opTeardown || k == opFedTeardown || k == opChurn || !isNoPath(r.body)
	}
	return true // transport error, deadline, 429, 5xx, 400
}

// clientMetrics computes what the clients and /proc saw of the measured
// phase — units over wall time, plain quantiles over the whole phase, one CPU
// delta — and states the timings at reference speed.
func clientMetrics(out *runOutput, w *workloadSpec, wall, daemonCPU, harnessCPU float64) {
	var lat [numOpKinds][]float64
	units, sent := 0, 0
	for _, rs := range out.results {
		for i := range rs {
			r := &rs[i]
			if r.status == statusSkipped {
				continue
			}
			sent++
			if statusFailed(r) {
				continue
			}
			lat[r.op.kind] = append(lat[r.op.kind], float64(r.latNs)/1e6)
			if r.op.kind == w.unit {
				units++
			}
		}
	}
	out.attempted += sent
	m := out.metrics
	primary := lat[w.primary]
	reads, tears := lat[opPath], lat[opTeardown]
	if w.name == "fed_session" {
		reads, tears = lat[opFedPath], lat[opFedTeardown]
	}
	raw := map[string]float64{
		"ops_s":           float64(units) / wall,
		"cpu_ms_per_op":   1e3 * daemonCPU / float64(max(units, 1)),
		"p50_ms":          quantile(primary, 0.50),
		"p95_ms":          quantile(primary, 0.95),
		"read_p50_ms":     quantile(reads, 0.50),
		"read_p95_ms":     quantile(reads, 0.95),
		"teardown_p50_ms": quantile(tears, 0.50),
		"heal_p50_ms":     quantile(lat[opChurn], 0.50),
	}

	// The box's speed during this phase, by the one piece of work in it that
	// no change to brokerd can alter: the harness's own CPU time per request.
	m["bench.yardstick_us"] = 1e6 * harnessCPU / float64(max(sent, 1))
	speed := 1.0
	if m["bench.yardstick_us"] > 0 && w.yardstick > 0 {
		speed = w.yardstick / m["bench.yardstick_us"]
	}
	m["bench.speed"] = speed
	// setup_s too: set-up ended seconds before the phase, and the box's speed
	// moves over minutes.
	raw["setup_s"] = m["setup_s"]
	for name, v := range raw {
		if name == "ops_s" {
			m[name] = v / speed
		} else {
			m[name] = v * speed
		}
	}
	for _, name := range rawReported {
		m["raw."+name] = raw[name]
	}

	m["client.p99_ms"] = quantile(primary, 0.99)
	m["client.max_ms"] = quantile(primary, 1)
	m["client.samples"] = float64(len(primary))
	if total := daemonCPU + harnessCPU; total > 0 {
		m["bench.client_cpu_share"] = harnessCPU / total
	}
	m["bench.phase_s"] = wall
}

// rawReported are the end-to-end timings also reported as measured, under
// "raw.<name>".
var rawReported = []string{"setup_s", "ops_s", "p50_ms", "p95_ms", "cpu_ms_per_op"}

// scrapeMetrics turns the /metrics delta over the measured phase into the
// [S] per-layer metrics.
func scrapeMetrics(m map[string]float64, m0, m1 map[string]float64) {
	d := func(name string) float64 { return m1[name] - m0[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	q := d("queryplane_queries_total")
	m["routing.searches"] = d("queryplane_misses_total")
	m["queryplane.hit_ratio"] = ratio(d("queryplane_hits_total"), q)
	m["queryplane.revalidated_ratio"] = ratio(d("queryplane_hits_revalidated_total"), q)
	m["queryplane.misses_invalidated"] = d("queryplane_misses_invalidated_total")
	m["queryplane.nopath_share"] = ratio(d("queryplane_errors_total"), q)
	m["queryplane.dedup"] = d("queryplane_dedup_total")
	m["queryplane.shed"] = d("queryplane_shed_total")
	m["epoch.published"] = d("epoch_published_total")
	m["ctrlplane.msgs_per_commit"] = ratio(d("ctrlplane_messages_total"), d("ctrlplane_commits_total"))
	m["ctrlplane.batch_occupancy"] = ratio(d("ctrlplane_batch_ops_total"), d("ctrlplane_batch_rounds_total"))
	m["ctrlplane.retries"] = d("ctrlplane_retries_total")
	m["ctrlplane.aborts"] = d("ctrlplane_aborts_total")
	m["churn.incremental_repairs"] = d("healer_incremental_repairs_total")
	m["churn.full_reselects"] = d("healer_full_reselects_total")
	m["churn.broker_adds"] = d("healer_broker_adds_total")
	m["churn.sessions_repaired"] = d("healer_sessions_repaired_total")
	m["churn.sessions_aborted"] = d("healer_sessions_aborted_total")
	m["federation.peer_msgs_per_setup"] = ratio(d("federation_peer_messages_total"), d("federation_setups_total"))
	m["federation.aborts"] = d("federation_aborts_total")
}

// quantile is stats.Quantile reading 0 for an empty sample: a metric of an
// op the workload never issues.
func quantile(xs []float64, q float64) float64 {
	v, _ := stats.Quantile(xs, q)
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
