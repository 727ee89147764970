package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Attr is one span annotation.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed operation inside a trace. Spans form a tree: the root
// span (Parent == 0) is minted by the HTTP middleware or a harness, and
// every subsystem a request flows through attaches children via
// StartSpan. A span is mutable only between StartSpan and End, by the one
// goroutine executing it; End publishes it into the tracer's ring, after
// which it is immutable.
type Span struct {
	TraceID  uint64        `json:"trace_id"`
	SpanID   uint64        `json:"span_id"`
	Parent   uint64        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	// Links are trace IDs of OTHER traces causally tied to this span —
	// e.g. the batch-leader's commit span links every follower trace whose
	// op rode in the batch.
	Links []uint64 `json:"links,omitempty"`

	tracer *Tracer
	// attrBuf backs Attrs for a span's first annotation, so the common
	// case (queryplane.query's "cache") allocates nothing beyond the span
	// itself. One slot keeps the span in the 160-byte size class.
	attrBuf [1]Attr
}

// attr appends one annotation, the first into attrBuf.
func (s *Span) attr(key, val string) {
	if s.Attrs == nil {
		s.Attrs = s.attrBuf[:0]
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// Annotate attaches a key/value annotation. Nil-safe: a span from a
// context without an active trace is nil and Annotate is a no-op.
func (s *Span) Annotate(key, val string) {
	if s == nil {
		return
	}
	s.attr(key, val)
}

// Annotatef attaches a formatted annotation. Nil-safe, but not free on an
// untraced path: Go evaluates and boxes the arguments at the call site
// before the nil check runs, so a non-constant argument that does not fit
// the runtime's small-value table allocates even when the span is nil. Hot
// paths annotate integers with AnnotateInt.
func (s *Span) Annotatef(key, format string, args ...any) {
	if s == nil {
		return
	}
	s.attr(key, fmt.Sprintf(format, args...))
}

// AnnotateInt attaches a decimal integer annotation. Nil-safe, and on a nil
// span it allocates nothing: the integer is formatted only once the span
// is known to be live.
func (s *Span) AnnotateInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attr(key, strconv.FormatInt(v, 10))
}

// Link records a causal link to another trace (span links, in OTel
// terms). Links to the span's own trace or to trace 0 are dropped — a
// link only carries information when it points somewhere else. Nil-safe.
func (s *Span) Link(traceID uint64) {
	if s == nil || traceID == 0 || traceID == s.TraceID {
		return
	}
	for _, l := range s.Links {
		if l == traceID {
			return
		}
	}
	s.Links = append(s.Links, traceID)
}

// End stamps the duration and publishes the span into the tracer ring.
// Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	s.tracer.record(s)
}

// Tracer mints trace IDs and records finished spans in a fixed-size
// lock-free ring: recording is an atomic cursor bump plus a pointer store,
// so tracing adds no lock to any hot path, and memory is bounded — old
// spans are overwritten, which is exactly what an always-on tracer wants.
type Tracer struct {
	ring      []atomic.Pointer[Span]
	mask      uint64
	pos       atomic.Uint64
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64
}

// NewTracer builds a tracer whose ring holds capacity spans (rounded up to
// a power of two; default 4096).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{ring: make([]atomic.Pointer[Span], n), mask: uint64(n - 1)}
}

func (t *Tracer) record(s *Span) {
	i := t.pos.Add(1) - 1
	t.ring[i&t.mask].Store(s)
}

// ctxKey keys the context payload: the current span itself, whose identity
// and tracer StartSpan extends into children. Those fields never change after
// the span is minted, so a child may read them while the parent is still
// open on another goroutine; a pointer in the context costs no allocation.
type ctxKey struct{}

// Root mints a new trace and its root span. id is the externally supplied
// trace ID (0 = mint a fresh one, e.g. from the X-Trace-ID request
// header). The returned context carries the trace for StartSpan callees.
func (t *Tracer) Root(ctx context.Context, name string, id uint64) (context.Context, *Span) {
	if id == 0 {
		id = t.nextTrace.Add(1)
	}
	s := &Span{
		TraceID: id,
		SpanID:  t.nextSpan.Add(1),
		Name:    name,
		Start:   time.Now(),
		tracer:  t,
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Adopt opens a span inside an EXISTING trace whose ID arrived from
// another process or plane (e.g. the Trace field of a control-plane
// message). The span is a parentless local root on that trace — the
// remote parent's span ID did not travel, only the trace ID — so a
// stitched trace shows one root per participant, all sharing TraceID.
// id 0 means the originating request was untraced; Adopt then returns
// the context unchanged and a nil span, keeping the path branch-free.
func (t *Tracer) Adopt(ctx context.Context, name string, id uint64) (context.Context, *Span) {
	if t == nil || id == 0 {
		return ctx, nil
	}
	s := &Span{
		TraceID: id,
		SpanID:  t.nextSpan.Add(1),
		Name:    name,
		Start:   time.Now(),
		tracer:  t,
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartSpan opens a child span of the context's active trace. When the
// context carries no trace (the overwhelmingly common untraced case) it
// returns the context unchanged and a nil span — every Span method is
// nil-safe, so call sites need no branches.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	p, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok {
		return ctx, nil
	}
	s := &Span{
		TraceID: p.TraceID,
		SpanID:  p.tracer.nextSpan.Add(1),
		Parent:  p.SpanID,
		Name:    name,
		Start:   time.Now(),
		tracer:  p.tracer,
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// TraceIDFrom returns the context's active trace ID (0 = untraced).
func TraceIDFrom(ctx context.Context) uint64 {
	if s, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return s.TraceID
	}
	return 0
}

// Spans snapshots the ring, oldest first. The snapshot is not atomic
// against concurrent recording — monitoring semantics, like the metrics
// registry.
func (t *Tracer) Spans() []Span {
	out := make([]Span, 0, len(t.ring))
	for i := range t.ring {
		if s := t.ring[i].Load(); s != nil {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Trace returns the recorded spans of one trace, oldest first.
func (t *Tracer) Trace(id uint64) []Span {
	all := t.Spans()
	out := all[:0]
	for _, s := range all {
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out[:len(out):len(out)]
}

// WriteJSONL writes spans one JSON object per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" complete event), the format
// chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Ph    string            `json:"ph"`
	TsUs  float64           `json:"ts"`
	DurUs float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   uint64            `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes spans as a Chrome trace-event JSON document
// (Perfetto-loadable): each span becomes a complete ("X") event, traces
// map to tracks (tid = trace ID), and span/parent identities ride in args
// so the tree is recoverable in the UI.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]string{
			"span_id": fmt.Sprint(s.SpanID),
		}
		if s.Parent != 0 {
			args["parent_id"] = fmt.Sprint(s.Parent)
		}
		if len(s.Links) > 0 {
			links := make([]string, len(s.Links))
			for i, l := range s.Links {
				links[i] = fmt.Sprint(l)
			}
			args["links"] = strings.Join(links, ",")
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		events = append(events, chromeEvent{
			Name:  s.Name,
			Cat:   strings.SplitN(s.Name, ".", 2)[0],
			Ph:    "X",
			TsUs:  float64(s.Start.UnixNano()) / 1e3,
			DurUs: float64(s.Duration.Nanoseconds()) / 1e3,
			PID:   1,
			TID:   s.TraceID,
			Args:  args,
		})
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
