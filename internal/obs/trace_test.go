package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTracerSpanTree(t *testing.T) {
	tr := NewTracer(64)
	ctx, root := tr.Root(context.Background(), "http GET /path", 0)
	if root.TraceID == 0 || root.SpanID == 0 {
		t.Fatalf("root identity not minted: %+v", root)
	}
	cctx, child := StartSpan(ctx, "queryplane.query")
	child.Annotate("cache", "miss")
	_, grand := StartSpan(cctx, "queryplane.compute")
	grand.End()
	child.End()
	root.End()

	spans := tr.Trace(root.TraceID)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byID := map[uint64]Span{}
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	var roots int
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", s.SpanID, s.Parent)
		}
		if p.TraceID != s.TraceID {
			t.Fatalf("parent in different trace")
		}
	}
	if roots != 1 {
		t.Fatalf("got %d roots, want 1", roots)
	}
	if got := byID[child.SpanID].Attrs; len(got) != 1 || got[0].Key != "cache" {
		t.Fatalf("annotation lost: %+v", got)
	}
}

func TestStartSpanWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "x")
	if s != nil {
		t.Fatal("untraced context produced a span")
	}
	if ctx2 != ctx {
		t.Fatal("untraced context was replaced")
	}
	// All methods nil-safe.
	s.Annotate("k", "v")
	s.Annotatef("k", "%d", 1)
	s.End()
	if TraceIDFrom(ctx) != 0 {
		t.Fatal("untraced context has a trace id")
	}
}

func TestTracerExternalTraceID(t *testing.T) {
	tr := NewTracer(16)
	_, root := tr.Root(context.Background(), "r", 777)
	root.End()
	if got := tr.Trace(777); len(got) != 1 || got[0].Name != "r" {
		t.Fatalf("external trace id not honored: %+v", got)
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4) // power of two already
	ctx, root := tr.Root(context.Background(), "root", 0)
	for i := 0; i < 10; i++ {
		_, s := StartSpan(ctx, "child")
		s.End()
	}
	root.End()
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("ring holds %d spans, want 4", got)
	}
	if tr.Recorded() != 11 {
		t.Fatalf("recorded = %d, want 11", tr.Recorded())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.Root(context.Background(), "op", 0)
				_, c := StartSpan(ctx, "inner")
				c.End()
				root.End()
			}
		}()
	}
	// Concurrent snapshots must be race-free.
	for i := 0; i < 50; i++ {
		_ = tr.Spans()
	}
	wg.Wait()
	if tr.Recorded() != 8*200*2 {
		t.Fatalf("recorded = %d", tr.Recorded())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.Root(context.Background(), "ctrlplane.setup", 0)
	_, c := StartSpan(ctx, "2pc.broadcast")
	c.Annotate("phase", "PREPARE")
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			PID  int               `json:"pid"`
			TID  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.PID != 1 || e.TID != root.TraceID || e.Ts <= 0 {
			t.Fatalf("malformed event: %+v", e)
		}
		if e.Args["span_id"] == "" {
			t.Fatalf("event missing span_id arg: %+v", e)
		}
	}
	if doc.TraceEvents[0].Args["phase"] != "PREPARE" && doc.TraceEvents[1].Args["phase"] != "PREPARE" {
		t.Fatal("annotation not exported to args")
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(16)
	_, root := tr.Root(context.Background(), "op", 0)
	root.End()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	lines := 0
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d not a span: %v", lines+1, err)
		}
		lines++
	}
	if lines != 1 {
		t.Fatalf("got %d JSONL lines, want 1", lines)
	}
}

// TestSpanAllocs pins what tracing costs a request: a root span and an
// annotated child each allocate the span and its context node and nothing
// else — the context carries the span pointer itself, and a first annotation
// lands in the span's own storage.
func TestSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	tr := NewTracer(64)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		rctx, root := tr.Root(ctx, "http GET /path", 0)
		_, child := StartSpan(rctx, "queryplane.query")
		child.Annotate("cache", "hit")
		child.End()
		root.End()
	})
	if allocs > 4 {
		t.Fatalf("root + annotated child: %.0f allocs, want <= 4", allocs)
	}
}

// TestAnnotationsSpillInOrder: annotations past the inline one keep their
// order, and the export lists exactly the annotations made.
func TestAnnotationsSpillInOrder(t *testing.T) {
	tr := NewTracer(8)
	_, s := tr.Root(context.Background(), "x", 7)
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Annotate(k, k+k)
	}
	s.End()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Trace(7)); err != nil {
		t.Fatal(err)
	}
	want := `"attrs":[{"k":"a","v":"aa"},{"k":"b","v":"bb"},{"k":"c","v":"cc"},{"k":"d","v":"dd"}]}`
	if got := strings.TrimSpace(buf.String()); !strings.HasSuffix(got, want) {
		t.Fatalf("export %s, want suffix %s", got, want)
	}
}
