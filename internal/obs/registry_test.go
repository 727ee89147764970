package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("queryplane_queries_total", "total queries")
	g := reg.Gauge("queryplane_cache_entries", "cached paths")
	h := reg.Histogram("queryplane_latency_seconds", "query latency")
	reg.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "ctrlplane_commits_total", Help: "2pc commits", Kind: KindCounter, Value: 7})
	})

	for i := 0; i < 42; i++ {
		c.Inc()
	}
	g.Set(13)
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE queryplane_queries_total counter",
		"queryplane_queries_total 42",
		"# TYPE queryplane_cache_entries gauge",
		"queryplane_cache_entries 13",
		"# TYPE ctrlplane_commits_total counter",
		"ctrlplane_commits_total 7",
		"# TYPE queryplane_latency_seconds summary",
		`queryplane_latency_seconds{quantile="0.5"}`,
		"queryplane_latency_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The exposition must self-validate.
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition invalid: %v", err)
	}
	// Samples must appear sorted by name.
	iQP := strings.Index(out, "queryplane_cache_entries 13")
	iCP := strings.Index(out, "ctrlplane_commits_total 7")
	if iCP > iQP {
		t.Fatal("samples not sorted by name")
	}
}

func TestCheckName(t *testing.T) {
	for _, ok := range []string{"queryplane_hits_total", "healer_repair_seconds", "a_b"} {
		if err := CheckName(ok); err != nil {
			t.Errorf("CheckName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "nounderscore", "Upper_case", "has space_x", "_leading", "trailing_", "double__under", "1_starts_with_digit"} {
		if err := CheckName(bad); err == nil {
			t.Errorf("CheckName(%q) = nil, want error", bad)
		}
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "")
	for name, fn := range map[string]func(){
		"duplicate":        func() { reg.Counter("a_total", "") },
		"invalid":          func() { reg.Gauge("NotValid", "") },
		"histogram suffix": func() { reg.Histogram("queryplane_latency_ms", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRegistryDuplicateCollectorSample(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	reg.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "x_total", Kind: KindCounter})
	})
	if err := reg.WritePrometheus(&strings.Builder{}); err == nil {
		t.Fatal("duplicate sample not rejected")
	}
}

func TestRegistryExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("queryplane_latency_seconds", "query latency")
	for i := 0; i < 50; i++ {
		h.Observe(time.Millisecond)
	}
	h.ObserveTrace(80*time.Millisecond, 0xabcd)
	h.ObserveTrace(90*time.Millisecond, 0xbeef)
	h.ObserveTrace(70*time.Millisecond, 0) // zero trace ID: no exemplar

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# EXEMPLAR queryplane_latency_seconds trace_id=43981 value=0.08",
		"# EXEMPLAR queryplane_latency_seconds trace_id=48879 value=0.09",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# EXEMPLAR"); n != 2 {
		t.Errorf("want 2 exemplar lines (zero trace dropped), got %d:\n%s", n, out)
	}
	// The exemplar annotations must survive our own validator.
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition invalid: %v", err)
	}
}

// TestRegistryConcurrentRegistration races new-metric registration against
// scrapes: registration rewrites the registry's internal maps while
// WritePrometheus walks them, so this only passes under -race if both
// paths hold the registry lock correctly.
func TestRegistryConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("seed_ops_total", "") // scrapes always see ≥1 family
	var registrars sync.WaitGroup
	for w := 0; w < 4; w++ {
		registrars.Add(1)
		go func(w int) {
			defer registrars.Done()
			for i := 0; i < 50; i++ {
				c := reg.Counter(fmt.Sprintf("worker%d_batch%d_total", w, i), "")
				c.Inc()
				h := reg.Histogram(fmt.Sprintf("worker%d_batch%d_seconds", w, i), "")
				h.ObserveTrace(time.Duration(i)*time.Millisecond, uint64(i+1))
			}
		}(w)
	}
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
			}
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
				t.Errorf("mid-registration exposition invalid: %v", err)
				return
			}
		}
	}()
	registrars.Wait()
	close(done)
	<-scraped
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "# TYPE"); got != 4*50*2+1 {
		t.Fatalf("final exposition has %d families, want %d", got, 4*50*2+1)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("load_ops_total", "")
	h := reg.Histogram("load_latency_seconds", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter %d hist %d, want 8000", c.Value(), h.Count())
	}
}

func TestValidateExposition(t *testing.T) {
	good := `# HELP up is up
# TYPE up gauge
up 1
# TYPE http_requests_total counter
http_requests_total{code="200",method="get"} 1027 1395066363000
# TYPE rpc_duration_seconds summary
rpc_duration_seconds{quantile="0.5"} 4.3e-05
rpc_duration_seconds_sum 1.7560473e+07
rpc_duration_seconds_count 2693
# EXEMPLAR rpc_duration_seconds trace_id=7 value=0.25
# a free-form comment is still fine
`
	if err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"no type":      "foo_total 1\n",
		"bad value":    "# TYPE foo gauge\nfoo xyz\n",
		"bad type":     "# TYPE foo widget\nfoo 1\n",
		"bad label":    "# TYPE foo gauge\nfoo{9bad=\"x\"} 1\n",
		"unquoted":     "# TYPE foo gauge\nfoo{a=b} 1\n",
		"unterminated": "# TYPE foo gauge\nfoo{a=\"b\" 1\n",
		"empty":        "\n",

		"exemplar field count":    "# TYPE foo_seconds summary\nfoo_seconds_count 1\n# EXEMPLAR foo_seconds trace_id=7\n",
		"exemplar undeclared":     "# TYPE foo gauge\nfoo 1\n# EXEMPLAR bar_seconds trace_id=7 value=0.1\n",
		"exemplar zero trace":     "# TYPE foo_seconds summary\nfoo_seconds_count 1\n# EXEMPLAR foo_seconds trace_id=0 value=0.1\n",
		"exemplar bad trace":      "# TYPE foo_seconds summary\nfoo_seconds_count 1\n# EXEMPLAR foo_seconds trace_id=abc value=0.1\n",
		"exemplar bad value":      "# TYPE foo_seconds summary\nfoo_seconds_count 1\n# EXEMPLAR foo_seconds trace_id=7 value=fast\n",
		"exemplar swapped fields": "# TYPE foo_seconds summary\nfoo_seconds_count 1\n# EXEMPLAR foo_seconds value=0.1 trace_id=7\n",
	} {
		if err := ValidateExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: invalid exposition accepted:\n%s", name, bad)
		}
	}
}
