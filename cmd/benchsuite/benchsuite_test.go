package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"brokerset/internal/topology"
)

func smokeTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.GenerateTier("smoke", topoSeed)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// Request streams are a pure function of (workload, seed).
func TestStreamsRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	top := smokeTopology(t)
	build := func(w *workloadSpec, seed int64) [][]op {
		hot, err := candidates(top, seed, 16)
		if err != nil {
			t.Fatal(err)
		}
		s, err := buildStreams(w, top, seed, 50, hot)
		if err != nil {
			t.Fatal(err)
		}
		if w.name == "churn_heal" { // client B's stream is a draw function
			draw := hotReader(seed, hot)
			for i := 0; i < 50; i++ {
				s[1] = append(s[1], draw())
			}
		}
		return s
	}
	for _, w := range workloads {
		a, b, c := build(w, 1), build(w, 1), build(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds of seed 1 differ", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("%s: both clients got the same stream", w.name)
		}
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "op.x", Parent: -1, Start: 0, End: 100},
		{Name: "a.one", Parent: 0, Start: 10, End: 30},
		{Name: "a.two", Parent: 0, Start: 20, End: 50},  // overlaps a.one: 10..50 is covered once
		{Name: "b.one", Parent: 0, Start: 60, End: 120}, // runs past the parent: clipped at 100
		{Name: "c.leaf", Parent: 1, Start: 12, End: 18},
	}
	want := []int64{100 - 40 - 40, 20 - 6, 30, 60, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// An op's root is the hull of its top-level children, so per op the self
// times of all spans sum to the root and a one-call op has no glue.
func TestTracerRootIsHullOfChildren(t *testing.T) {
	tr := newTracer()
	root := tr.op("op.two", func() {
		tr.do("a.first", func() { tr.do("b.inner", func() {}) })
		tr.do("a.second", func() {})
	})
	tr.op("op.one", func() { tr.do("a.only", func() {}) })
	s := tr.spans
	if s[0].Start != s[1].Start || s[0].End != s[3].End || root != s[0].dur() {
		t.Errorf("root %+v is not the hull of %+v..%+v (returned %d)", s[0], s[1], s[3], root)
	}
	if s[2].Parent != 1 || s[1].Parent != 0 || s[4].Parent != -1 || s[4].Trace == s[0].Trace {
		t.Errorf("parents or trace ids wrong: %+v", s)
	}
	self := selfTimes(s)
	var sum int64
	for i := 0; i < 4; i++ {
		sum += self[i]
	}
	if sum != s[0].dur() {
		t.Errorf("self times of op.two sum to %d, root is %d", sum, s[0].dur())
	}
	if self[4] != 0 {
		t.Errorf("one-call op has glue %d, want 0", self[4])
	}
	var nilTracer *tracer
	ran := false
	nilTracer.op("op.off", func() { nilTracer.do("a.off", func() { ran = true }) })
	if !ran {
		t.Error("spans-off tracer did not run the call")
	}
}

func TestReplayPlanTakesFirstQuarterInterleaved(t *testing.T) {
	results := [][]result{make([]result, 8), make([]result, 40)}
	plan := replayPlan(results)
	if len(plan) != 2+10 {
		t.Fatalf("plan has %d steps, want 12", len(plan))
	}
	// The writer's two ops sit among the reader's ten, not before or after.
	var where []int
	for i, s := range plan {
		if s.client == 0 {
			where = append(where, i)
		}
	}
	if !reflect.DeepEqual(where, []int{2, 8}) {
		t.Errorf("client 0's steps at %v, want [2 8]", where)
	}
}

type okExecutor struct{ calls int }

func (e *okExecutor) exec(op, int) reply { e.calls++; return reply{status: 200} }

// Past the deadline a client stops, even on a stream that never ends
// (churn_heal's reader while the writer's last post is still in flight).
func TestRunClientStopsAtDeadline(t *testing.T) {
	endless := func() (op, bool) { return op{kind: opPath}, true }
	var ex okExecutor
	if got := runClient(&ex, endless, time.Now().Add(-time.Second)); len(got) != 0 || ex.calls != 0 {
		t.Errorf("past the deadline: %d results, %d requests sent; want none", len(got), ex.calls)
	}
	if got := runClient(&ex, endless, time.Now().Add(20*time.Millisecond)); len(got) == 0 || len(got) != ex.calls {
		t.Errorf("before the deadline: %d results for %d requests", len(got), ex.calls)
	}
}

// A box that spends twice the catalogued CPU time per request of the harness
// runs at half speed: times are stated halved, rates doubled, and the raw.*
// metrics keep what the clocks read.
func TestTimingsAreStatedAtReferenceSpeed(t *testing.T) {
	w := &workloadSpec{name: "path_hot", primary: opPath, unit: opPath, yardstick: 50}
	out := &runOutput{metrics: map[string]float64{"setup_s": 3}}
	out.results = [][]result{make([]result, 100)}
	for i := range out.results[0] {
		out.results[0][i] = result{op: op{kind: opPath}, status: 200, latNs: 4e6}
	}
	// 100 requests in 1 s of wall time; brokerd used 0.2 s of CPU, the
	// harness 0.01 s = 100 us per request against a yardstick of 50.
	clientMetrics(out, w, 1, 0.2, 0.01)
	want := map[string]float64{
		"bench.yardstick_us": 100, "bench.speed": 0.5,
		"raw.setup_s": 3, "raw.ops_s": 100, "raw.p50_ms": 4, "raw.p95_ms": 4, "raw.cpu_ms_per_op": 2,
		"setup_s": 1.5, "ops_s": 200, "p50_ms": 2, "p95_ms": 2, "cpu_ms_per_op": 1,
	}
	for name, v := range want {
		if got := out.metrics[name]; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if out.attempted != 100 {
		t.Errorf("attempted = %d, want 100", out.attempted)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{name: "p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "ops_s", better: "higher", bound: 0.10}
	abs := metricSpec{name: "fail_share", better: "lower", absBound: 0.005}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 140, 70, 100, 125}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"slower beyond bound", lower, steady, []float64{120, 121, 119, 120, 120}, verdictRegressed},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"throughput fell", higher, steady, []float64{80, 81, 79, 80, 80}, verdictRegressed},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{"spread wider than bound", lower, noisy, noisy, verdictUnresolved},
		{"worse but inside the noise", lower, noisy, []float64{115, 150, 80, 115, 140}, verdictUnresolved},
		{"absolute bound", abs, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, verdictRegressed},
		{"absolute bound held", abs, []float64{0, 0, 0}, []float64{0.001, 0, 0}, verdictOK},
	} {
		if got := judge(tc.m, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesFlagsARegression(t *testing.T) {
	doc := func(p50 float64) *document {
		d := &document{Schema: schemaVersion, Tier: "table2", Seconds: 12}
		for seed := int64(1); seed <= 3; seed++ {
			d.Runs = append(d.Runs, &runRecord{Workload: "path_hot", Seed: seed, Correct: true, Metrics: map[string]metricValue{
				"p50_ms": {p50 + 0.001*float64(seed), "ms"}, "ops_s": {1000, "1/s"},
			}})
		}
		return d
	}
	dir := t.TempDir()
	write := func(name string, d *document) string {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", doc(0.130)), write("same.json", doc(0.131)), write("slow.json", doc(0.190))
	if regressed, err := compareFiles(io.Discard, a, same); err != nil || regressed {
		t.Errorf("A/A: regressed=%v err=%v", regressed, err)
	}
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, a, slow); err != nil || !regressed {
		t.Errorf("46%% slower p50: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "p50_ms") {
		t.Errorf("comparison table does not name the regression:\n%s", out.String())
	}
}

func TestCheckPath(t *testing.T) {
	top := smokeTopology(t)
	g := top.Graph
	u := g.MaxDegreeNode()
	nb := g.Neighbors(u)
	a, b := nb[0], nb[1]
	inB := make([]bool, g.NumNodes())
	inB[u] = true
	o := op{kind: opPath, src: a, dst: b}
	good := &pathReply{Nodes: []int32{a, int32(u), b}}
	if msg := checkPath(g, inB, o, good); msg != "" {
		t.Errorf("good path rejected: %s", msg)
	}
	inB[u] = false
	if checkPath(g, inB, o, good) == "" {
		t.Error("undominated hop accepted")
	}
	if checkPath(g, nil, o, &pathReply{Nodes: []int32{a, int32(u)}}) == "" {
		t.Error("wrong endpoint accepted")
	}
	if !g.HasEdge(int(a), int(b)) && checkPath(g, nil, o, &pathReply{Nodes: []int32{a, b}}) == "" {
		t.Error("non-adjacent hop accepted")
	}
	fo := op{kind: opFedPath, src: a, dst: b}
	stitched := &pathReply{Nodes: []int32{a, int32(u), b}, Crossings: 1}
	stitched.Segments = []struct {
		Nodes []int32 `json:"nodes"`
	}{{[]int32{a, int32(u)}}, {[]int32{int32(u), b}}}
	if msg := checkPath(g, nil, fo, stitched); msg != "" {
		t.Errorf("good stitched path rejected: %s", msg)
	}
	stitched.Segments[1].Nodes = []int32{b, b}
	if checkPath(g, nil, fo, stitched) == "" {
		t.Error("segments that do not share their border node accepted")
	}
}

// BENCHMARK.json is the catalogue: same workloads, metrics, units, bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(benchmarkContract())
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, want) {
		t.Error("BENCHMARK.json differs from `go run ./cmd/benchsuite -contract`")
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s is catalogued twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
	}
}

func TestREADMENamesEveryWorkloadAndMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README does not name workload %s", w.name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+m.name+"`") {
			t.Errorf("README does not name metric %s", m.name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// A smoke-tier run of all five workloads, traced, emits every metric
// BENCHMARK.json lists — finite, well named, with the end-to-end ones
// non-zero — and verifies clean.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() || runtime.GOOS != "linux" {
		t.Skip("boots brokerd subprocesses and reads /proc")
	}
	bin, err := buildBrokerd(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	top := smokeTopology(t)
	units := map[string]int{"path_cold": 60, "path_hot": 300, "session_mix": 30, "churn_heal": 4, "fed_session": 40}
	doc := newDocument(tiers["smoke"], 1)
	for _, w := range workloads {
		cfg := runConfig{w: w, tier: tiers["smoke"], seed: 1, seconds: 1, units: units[w.name], setups: 1, brokerd: bin}
		if w.hot > 0 {
			cfg.hot = 16
		}
		if w.resident > 0 {
			cfg.resident = 8
		}
		out, err := runWorkload(cfg, top)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := tracedRun(cfg, top, out, traceFile, io.Discard); err != nil {
			t.Fatalf("%s: traced run: %v", w.name, err)
		}
		if st, err := os.Stat(traceFile); err != nil || st.Size() == 0 {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
		rec := doc.add(w, 1, out, true)
		if !rec.Correct {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, rec.Failed, rec.Attempted, out.problems)
		}
		for _, traced := range []bool{false, true} {
			line := rec.contractLine(traced)
			want := endToEnd[:contractE2E]
			if traced {
				want = contractPerLayer()
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := line.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.name, m.name)
				case !metricName.MatchString(m.name) || v.Unit != m.unit:
					t.Errorf("%s: metric %q unit %q: bad name or unit (want %q)", w.name, m.name, v.Unit, m.unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, m.name, v.Value)
				}
			}
		}
		// Every end-to-end metric defined on this workload came out of the
		// run. (fail_share is 0 when all is well; a phase this short can
		// fall between two 10 ms ticks of the daemon's CPU clock.)
		for _, m := range endToEnd {
			if m.appliesTo(w.name) && m.name != "fail_share" && m.name != "cpu_ms_per_op" && rec.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, rec.Metrics[m.name].Value)
			}
		}
		if w.name == "path_hot" && rec.Metrics["routing.searches"].Value != 0 {
			t.Errorf("path_hot ran %v searches, want 0", rec.Metrics["routing.searches"].Value)
		}
		if g := rec.Metrics["bench.glue_pct"].Value; g > 5 {
			t.Errorf("%s: glue is %.1f%% of the root spans, the budget does not close", w.name, g)
		}
	}
}
