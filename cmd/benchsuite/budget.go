package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"brokerset/internal/topology"
)

// tracedRun is the separate traced pass behind -trace 1. It times the [K]
// kernels, replays the first quarter of the untraced run's op stream on an
// in-process stack twice — spans off, then spans on — writes the spans to
// traceFile, and adds every [T] metric to out.metrics. The untraced run's
// numbers are never touched: the difference between the two replays is the
// tracing overhead, and the difference between a client's latency and the
// same op's in-process root span is the residual no span explains.
func tracedRun(cfg runConfig, top *topology.Topology, out *runOutput, traceFile string, log io.Writer) error {
	kernels, err := timeKernels(cfg.tier, top)
	if err != nil {
		return err
	}
	for name, v := range kernels {
		out.metrics[name] = v
	}
	var cands []pair
	if cfg.hot > 0 || cfg.resident > 0 {
		if cands, err = candidates(top, cfg.seed, candidateCount(cfg)); err != nil {
			return err
		}
	}
	plan := replayPlan(out.results)
	off, err := replay(nil, cfg, top, cands, plan)
	if err != nil {
		return err
	}
	tr := newTracer()
	on, err := replay(tr, cfg, top, cands, plan)
	if err != nil {
		return err
	}
	spans := tr.spans
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return err
	}
	if err := writeJSONL(traceFile, spans); err != nil {
		return err
	}

	self := selfTimes(spans)
	layerMetrics(out.metrics, spans, self)

	// Primary ops only, paired by position in the stream: the same request
	// as the client sent it, as the spans-on replay ran it, and as the
	// spans-off replay ran it (both replays timed alike, from outside).
	var client, root, residual, wallOn, wallOff []float64
	for i, step := range plan {
		h := &out.results[step.client][step.index]
		if step.op.kind != cfg.w.primary || on[i].status == statusSkipped || h.status == statusSkipped || statusFailed(h) {
			continue
		}
		client = append(client, float64(h.latNs))
		root = append(root, float64(on[i].rootNs))
		residual = append(residual, float64(h.latNs-on[i].rootNs))
		wallOn = append(wallOn, float64(on[i].latNs))
		wallOff = append(wallOff, float64(off[i].latNs))
	}
	out.metrics["brokerd.http_residual_us"] = median(residual) / 1e3
	if base := median(wallOff); base > 0 {
		out.metrics["obs.trace_overhead_pct"] = 100 * (median(wallOn) - base) / base
	}
	out.metrics["bench.glue_pct"] = printBudget(log, cfg.w, spans, self)
	fmt.Fprintf(log, "primary op %s over the %d replayed: client p50 %.1f us, in-process root p50 %.1f us, paired residual p50 %.1f us\n",
		cfg.w.primary, len(client), median(client)/1e3, median(root)/1e3, out.metrics["brokerd.http_residual_us"])
	return nil
}

// layerMetrics derives the [T] metrics: the median self time of the spans
// of one name (the 95th percentile where the name says so).
func layerMetrics(m map[string]float64, spans []span, self []int64) {
	hasSearch := make(map[int]bool) // query spans that ran a search
	for _, s := range spans {
		if layerOf(s.Name) == "routing" && s.Parent >= 0 {
			hasSearch[s.Parent] = true
		}
	}
	byName := make(map[string][]float64)
	for i, s := range spans {
		name := s.Name
		if name == "queryplane.query" {
			name = "queryplane.query_hit"
			if hasSearch[i] {
				name = "queryplane.query_miss"
			}
		}
		byName[name] = append(byName[name], float64(self[i]))
	}
	ms := func(span string, q float64) float64 { return quantile(byName[span], q) / 1e6 }
	us := func(span string, q float64) float64 { return quantile(byName[span], q) / 1e3 }
	m["routing.best_path_ms"] = ms("routing.best_path", 0.5)
	m["routing.best_path_p95_ms"] = ms("routing.best_path", 0.95)
	m["routing.nopath_ms"] = ms("routing.nopath", 0.5)
	m["queryplane.hit_self_us"] = us("queryplane.query_hit", 0.5)
	m["queryplane.miss_self_us"] = us("queryplane.query_miss", 0.5)
	m["queryplane.resolve_us"] = us("queryplane.resolve", 0.5)
	m["epoch.snapshot_build_ms"] = ms("epoch.snapshot_build", 0.5)
	m["epoch.publish_ms"] = ms("epoch.publish", 0.5)
	m["epoch.path_valid_us"] = us("epoch.path_valid", 0.5)
	m["ctrlplane.commit_batch_ms"] = ms("ctrlplane.commit_batch", 0.5)
	m["ctrlplane.teardown_batch_ms"] = ms("ctrlplane.teardown_batch", 0.5)
	m["churn.apply_ms"] = ms("churn.apply", 0.5)
	m["churn.heal_ms"] = ms("churn.heal", 0.5)
	m["churn.live_graph_ms"] = ms("churn.live_graph", 0.5)
	m["federation.stitch_cold_ms"] = ms("federation.stitch_cold", 0.5)
	m["federation.stitch_warm_ms"] = ms("federation.stitch_warm", 0.5)
	m["federation.setup_ms"] = ms("federation.setup", 0.5)
	m["federation.teardown_ms"] = ms("federation.teardown", 0.5)
}

// printBudget prints, per op kind, the mean in-process root span and the
// mean self time each layer contributes to it. Per op the layer self times
// and the harness's own glue (the root's self time) sum to the root span
// exactly; the budget closes when glue is small. It returns glue as a
// percentage of all root time.
func printBudget(w io.Writer, wl *workloadSpec, spans []span, self []int64) float64 {
	type kindBudget struct {
		ops      int
		root     int64
		glue     int64
		perLayer map[string]int64
	}
	kinds := make(map[string]*kindBudget)
	rootName := make(map[int]string) // trace id → op name
	for _, s := range spans {
		if s.Parent < 0 {
			rootName[s.Trace] = s.Name
		}
	}
	layers := make(map[string]bool)
	var totalRoot, totalGlue int64
	for i, s := range spans {
		name := rootName[s.Trace]
		k := kinds[name]
		if k == nil {
			k = &kindBudget{perLayer: make(map[string]int64)}
			kinds[name] = k
		}
		if s.Parent < 0 {
			k.ops++
			k.root += s.dur()
			k.glue += self[i]
			totalRoot += s.dur()
			totalGlue += self[i]
			continue
		}
		l := layerOf(s.Name)
		layers[l] = true
		k.perLayer[l] += self[i]
	}
	names := make([]string, 0, len(kinds))
	for n := range kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	layerNames := make([]string, 0, len(layers))
	for l := range layers {
		layerNames = append(layerNames, l)
	}
	sort.Strings(layerNames)

	fmt.Fprintf(w, "\nlatency budget, %s (traced replay; mean us per op)\n", wl.name)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "op\tn\troot\t")
	for _, l := range layerNames {
		fmt.Fprintf(tw, "%s\t", l)
	}
	fmt.Fprintln(tw, "glue\tlayers/root\t")
	for _, n := range names {
		k := kinds[n]
		per := func(ns int64) float64 { return float64(ns) / float64(k.ops) / 1e3 }
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t", n, k.ops, per(k.root))
		for _, l := range layerNames {
			fmt.Fprintf(tw, "%.2f\t", per(k.perLayer[l]))
		}
		closure := 100.0
		if k.root > 0 {
			closure = 100 * float64(k.root-k.glue) / float64(k.root)
		}
		fmt.Fprintf(tw, "%.2f\t%.1f%%\t\n", per(k.glue), closure)
	}
	tw.Flush()
	if totalRoot == 0 {
		return 0
	}
	return 100 * float64(totalGlue) / float64(totalRoot)
}
