// Package obs is the unified observability substrate: a metrics registry
// with Prometheus text exposition, a shared HDR-style
// latency histogram, context-propagated request tracing into a lock-free
// span ring (exportable as Chrome trace-event JSON and JSONL), and a
// bounded flight recorder of recent control-plane events dumped on
// invariant violations. Every subsystem (queryplane, ctrlplane, transport,
// churn healer) reports through this package instead of hand-rolled
// ad-hoc counters, so one scrape explains where a Setup spent its time
// under loss, churn, and crash recovery.
//
// Metric names follow the subsystem_name_unit convention: a lowercase
// subsystem prefix, an underscore-separated body, and a unit suffix —
// counters end in _total, duration summaries in _seconds, sizes in _bytes.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric sample for exposition.
type Kind uint8

// Sample kinds, mirroring the Prometheus metric types the registry emits.
const (
	KindCounter Kind = iota + 1
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "untyped"
}

// Sample is one scrape-time metric value emitted by a collector.
type Sample struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic gauge (a value that can go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CollectorFunc emits a batch of samples at scrape time. Registering one
// collector per subsystem keeps the hot path free of registry overhead:
// subsystems update their own atomics and the collector adapts them to
// samples only when /metrics is scraped.
type CollectorFunc func(emit func(Sample))

// summaryQuantiles are the quantiles every registered histogram exports.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

type instrument struct {
	name, help string
	kind       Kind
	counter    *Counter
	gauge      *Gauge
}

type histEntry struct {
	name, help string
	h          *Histogram
}

// Registry holds directly-updated instruments (counters, gauges,
// histograms) and scrape-time collectors, and renders them as Prometheus
// text exposition. All methods are safe for concurrent
// use; registration panics on invalid or duplicate names (programmer
// error, caught at wiring time).
type Registry struct {
	mu         sync.RWMutex
	names      map[string]struct{}
	instr      []instrument
	hists      []histEntry
	collectors []CollectorFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// CheckName validates the subsystem_name_unit convention: lowercase
// [a-z0-9_], at least one underscore (subsystem prefix), no leading/
// trailing/doubled underscores, and a lettered subsystem segment.
func CheckName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
			return fmt.Errorf("obs: metric %q: invalid rune %q (want [a-z0-9_])", name, r)
		}
	}
	parts := strings.Split(name, "_")
	if len(parts) < 2 {
		return fmt.Errorf("obs: metric %q lacks a subsystem_ prefix", name)
	}
	for _, p := range parts {
		if p == "" {
			return fmt.Errorf("obs: metric %q has an empty name segment", name)
		}
	}
	if strings.IndexFunc(parts[0], func(r rune) bool { return r >= 'a' && r <= 'z' }) < 0 {
		return fmt.Errorf("obs: metric %q subsystem segment has no letters", name)
	}
	return nil
}

func (r *Registry) register(name string) {
	if err := CheckName(name); err != nil {
		panic(err)
	}
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = struct{}{}
}

// Counter registers and returns a counter. Counter names must end in a
// unit suffix; by convention event counts use _total.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	c := &Counter{}
	r.instr = append(r.instr, instrument{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	g := &Gauge{}
	r.instr = append(r.instr, instrument{name: name, help: help, kind: KindGauge, gauge: g})
	return g
}

// Histogram registers and returns a new duration histogram, exported as a
// Prometheus summary (p50/p95/p99 + _sum + _count) in seconds. Duration
// metric names must end in _seconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := NewHistogram()
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram registers an existing histogram (e.g. one a subsystem
// already updates on its hot path) under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	if !strings.HasSuffix(name, "_seconds") {
		panic(fmt.Sprintf("obs: histogram %q must end in _seconds", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	r.hists = append(r.hists, histEntry{name: name, help: help, h: h})
}

// RegisterCollector adds a scrape-time sample source. Collectors run on
// every exposition in registration order; sample names must pass CheckName
// and not collide with registered instruments (violations surface as
// exposition-time errors, and the CI promcheck gate catches them).
func (r *Registry) RegisterCollector(fn CollectorFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// gather snapshots every instrument and collector into a sorted sample
// list plus the histogram entries.
func (r *Registry) gather() ([]Sample, []histEntry, error) {
	r.mu.RLock()
	instr := append([]instrument(nil), r.instr...)
	hists := append([]histEntry(nil), r.hists...)
	collectors := append([]CollectorFunc(nil), r.collectors...)
	r.mu.RUnlock()

	samples := make([]Sample, 0, len(instr)+16)
	for _, in := range instr {
		s := Sample{Name: in.name, Help: in.help, Kind: in.kind}
		switch {
		case in.counter != nil:
			s.Value = float64(in.counter.Value())
		case in.gauge != nil:
			s.Value = float64(in.gauge.Value())
		}
		samples = append(samples, s)
	}
	var err error
	for _, fn := range collectors {
		fn(func(s Sample) {
			if nameErr := CheckName(s.Name); nameErr != nil && err == nil {
				err = nameErr
				return
			}
			samples = append(samples, s)
		})
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	for i := 1; i < len(samples); i++ {
		if samples[i].Name == samples[i-1].Name && err == nil {
			err = fmt.Errorf("obs: duplicate sample %q", samples[i].Name)
		}
	}
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	return samples, hists, err
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): every sample with # HELP / # TYPE headers, and
// every histogram as a summary with p50/p95/p99 quantiles in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples, hists, err := r.gather()
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, s := range samples {
		help := s.Help
		if help == "" {
			help = s.Name
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, escapeHelp(help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Kind)
		fmt.Fprintf(&b, "%s %s\n", s.Name, formatValue(s.Value))
	}
	for _, he := range hists {
		help := he.help
		if help == "" {
			help = he.name
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", he.name, escapeHelp(help))
		fmt.Fprintf(&b, "# TYPE %s summary\n", he.name)
		for _, q := range summaryQuantiles {
			fmt.Fprintf(&b, "%s{quantile=%q} %s\n", he.name, fmt.Sprint(q), formatValue(he.h.Quantile(q).Seconds()))
		}
		fmt.Fprintf(&b, "%s_sum %s\n", he.name, formatValue(he.h.Sum().Seconds()))
		fmt.Fprintf(&b, "%s_count %d\n", he.name, he.h.Count())
		// Exemplars ride as comments (the 0.0.4 text format has no native
		// exemplar syntax): standard parsers skip them, promcheck validates
		// them, and humans get a trace ID to paste into /debug/trace.
		for _, e := range he.h.Exemplars() {
			fmt.Fprintf(&b, "# EXEMPLAR %s trace_id=%d value=%s\n", he.name, e.TraceID, formatValue(e.Value.Seconds()))
		}
	}
	_, err = io.WriteString(w, b.String())
	return err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
