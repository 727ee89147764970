package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; the layer
// is everything before the first dot. Parent is an index into the tracer's
// span slice (-1 for an op root) and Trace is shared by the spans of one op.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory for the single-threaded traced replay.
// A nil *tracer is the spans-off mode: do and op just run the call.
//
// An op's root span is the hull of its top-level children (first start to
// last end): the only time it holds that no layer span explains is the
// harness's own glue between two calls, so a one-call op has zero glue and
// the per-op budget closes by construction instead of by clock overhead.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	trace int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// do runs fn inside a span named name, child of the innermost open span.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, Parent: parent})
	t.stack = append(t.stack, idx)
	t.spans[idx].Start = t.now()
	fn()
	t.spans[idx].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// rename renames the innermost open span: a call is named by its outcome
// (a search that found no path) once the outcome is known.
func (t *tracer) rename(name string) {
	if t != nil && len(t.stack) > 0 {
		t.spans[t.stack[len(t.stack)-1]].Name = name
	}
}

// op runs fn as one operation (one trace id) and returns the root span's
// duration in nanoseconds (0 with spans off).
func (t *tracer) op(name string, fn func()) int64 {
	if t == nil {
		fn()
		return 0
	}
	t.trace++
	root := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, Parent: -1})
	t.stack = append(t.stack, root)
	fn()
	t.stack = t.stack[:len(t.stack)-1]
	first, last := int64(-1), int64(0)
	for i := root + 1; i < len(t.spans); i++ {
		if t.spans[i].Parent != root {
			continue
		}
		if first < 0 {
			first = t.spans[i].Start
		}
		last = t.spans[i].End
	}
	if first < 0 { // no layer was called: an empty op
		first = t.now()
		last = first
	}
	t.spans[root].Start, t.spans[root].End = first, last
	return last - first
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Overlapping children (none occur in
// the single-threaded replay, but the arithmetic must not double-count)
// are merged before subtracting.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
