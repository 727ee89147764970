package main

import (
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// document is the one schema every benchsuite run emits and -compare reads.
type document struct {
	Schema     string       `json:"schema"`
	Commit     string       `json:"commit"`
	GoVersion  string       `json:"go_version"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Tier       string       `json:"tier"`
	TopoSeed   int64        `json:"topology_seed"`
	Clients    int          `json:"clients"`
	Seconds    int          `json:"seconds"`
	Runs       []*runRecord `json:"runs"`
}

const schemaVersion = "benchsuite/1"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload on one seed.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newDocument(t tier, seconds int) *document {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &document{
		Schema: schemaVersion, Commit: commit, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Tier: t.name, TopoSeed: topoSeed, Clients: numClients, Seconds: seconds,
	}
}

// add records a run: every end-to-end metric defined on the workload, and
// every per-layer metric the run could measure ([T] and [K] need -trace 1).
func (d *document) add(w *workloadSpec, seed int64, out *runOutput, traced bool) *runRecord {
	out.metrics["fail_share"] = float64(out.failed) / float64(max(out.attempted, 1))
	rec := &runRecord{
		Workload: w.name, Seed: seed, Traced: traced, Correct: out.failed == 0,
		Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue),
	}
	for _, m := range endToEnd {
		if m.appliesTo(w.name) {
			rec.Metrics[m.name] = metricValue{out.metrics[m.name], m.unit}
		}
	}
	for _, m := range perLayer {
		if traced || m.source == srcClient || m.source == srcScrape {
			rec.Metrics[m.name] = metricValue{out.metrics[m.name], m.unit}
		}
	}
	d.Runs = append(d.Runs, rec)
	return rec
}

// contractResult is the driver's result line.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractLine is the run in the shape BENCHMARK.json promises: exactly the
// end_to_end metrics untraced, exactly the per_layer metrics traced. A
// per-layer metric of a layer the workload never enters reads 0.
func (r *runRecord) contractLine(traced bool) contractResult {
	specs := endToEnd[:contractE2E]
	if traced {
		specs = contractPerLayer()
	}
	res := contractResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	for _, m := range specs {
		res.Metrics[m.name] = metricValue{r.Metrics[m.name].Value, m.unit}
	}
	return res
}

// printTable is the human view: one block per run, end-to-end first.
func (d *document) printTable(w io.Writer) {
	fmt.Fprintf(w, "\nbenchsuite %s  commit %.12s  %s  nproc %d  GOMAXPROCS %d  tier %s  %d clients\n",
		d.Schema, d.Commit, d.GoVersion, d.NProc, d.GOMAXPROCS, d.Tier, d.Clients)
	for _, r := range d.Runs {
		verdict := "correct"
		if !r.Correct {
			verdict = "INCORRECT"
		}
		fmt.Fprintf(w, "\n== %s  seed %d  attempted %d  failed %d  %s\n", r.Workload, r.Seed, r.Attempted, r.Failed, verdict)
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		row := func(kind string, m metricSpec) {
			if v, ok := r.Metrics[m.name]; ok {
				fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%s\t%s\n", kind, m.name, v.Value, v.Unit, m.source)
			}
		}
		for _, m := range endToEnd {
			row("e2e", m)
		}
		for _, m := range perLayer {
			row("layer", m)
		}
		tw.Flush()
	}
}

// benchmarkContract is BENCHMARK.json, derived from the catalogue so the
// two cannot drift (a test compares the file with this).
func benchmarkContract() map[string]any {
	type entry = map[string]any
	var wl, e2e, layers []entry
	for _, w := range workloads {
		wl = append(wl, entry{"name": w.name, "why": w.why})
	}
	for _, m := range endToEnd[:contractE2E] {
		e2e = append(e2e, entry{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound})
	}
	for _, m := range contractPerLayer() {
		layers = append(layers, entry{"name": m.name, "unit": m.unit, "better": m.better})
	}
	return map[string]any{
		"command":     []string{"go", "run", "./cmd/benchsuite"},
		"paths":       []string{"cmd/benchsuite"},
		"run_seconds": defaultSeconds,
		"workloads":   wl,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}
