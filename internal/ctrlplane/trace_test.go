package ctrlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// TestTracePropagation2PC runs setups over a 3% drop/dup fault transport
// with a tracer attached and proves the trace covers the whole protocol:
// one root per trace, every parent resolves inside the trace, the span
// tree follows setup → broadcast → attempt → send/backoff,
// and the span counts obey the protocol structure — every broadcast's
// first attempt is backoff-free and every later attempt is preceded by
// exactly one backoff, so #backoff == #attempt − #broadcast. At least one
// traced setup must have retried (spans for the retry rounds and their
// backoffs), which 3% loss guarantees over a few hundred runs.
func TestTracePropagation2PC(t *testing.T) {
	const nodes = 8
	top, m := ringTop(t, nodes)
	brokers := make([]int32, nodes)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	p := New(top, m, brokers)
	rates := FaultRates{Drop: 0.03, Duplicate: 0.03}
	p.UseTransport(NewFaultTransport(FaultConfig{Seed: chaosSeed(t), ToBroker: rates, ToCoord: rates}))

	tr := obs.NewTracer(4096)
	rng := rand.New(rand.NewSource(2))
	var (
		tracesChecked int
		retriedTraces int
	)
	for i := 0; i < 400; i++ {
		src := rng.Intn(nodes)
		dst := (src + 1 + rng.Intn(nodes-1)) % nodes
		ctx, root := tr.Root(context.Background(), "test.setup", 0)
		s, err := p.Setup(ctx, src, dst, 1, routing.Options{})
		root.End()
		if err != nil {
			continue // aborted setups have extra abort broadcasts; skip
		}
		spans := tr.Trace(root.TraceID)
		counts := checkSpanTree(t, spans)
		if counts["2pc.broadcast"] != 2 {
			t.Fatalf("setup %d: %d broadcast spans, want 2 (PREPARE+BATCH): %+v", s.ID, counts["2pc.broadcast"], counts)
		}
		if got, want := counts["2pc.backoff"], counts["2pc.attempt"]-counts["2pc.broadcast"]; got != want {
			t.Fatalf("setup %d: %d backoff spans, want #attempt-#broadcast = %d", s.ID, got, want)
		}
		if counts["2pc.send"] < len(s.Path)-1 {
			t.Fatalf("setup %d: %d send spans for a %d-hop path", s.ID, counts["2pc.send"], len(s.Path)-1)
		}
		tracesChecked++
		if counts["2pc.backoff"] > 0 {
			retriedTraces++
		}
		_ = p.Teardown(context.Background(), s)
	}
	if tracesChecked == 0 {
		t.Fatal("no setup committed under fault injection")
	}
	if retriedTraces == 0 {
		t.Fatal("no traced setup retried — fault injection did not exercise the retry path")
	}
	if p.Stats().Retries == 0 {
		t.Fatal("plane recorded no retries")
	}
	t.Logf("checked %d traces, %d with retries", tracesChecked, retriedTraces)

	// The recorded spans must export as a Perfetto-loadable Chrome trace.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("non-complete event %q", e.Ph)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"ctrlplane.setup", "2pc.broadcast", "2pc.attempt", "2pc.backoff", "2pc.send"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q events", want)
		}
	}
}

// TestCommitBatchTraceStitching pins the group-commit trace contract: each
// follower op's PREPARE rides the follower's own trace ID on the wire (the
// leader's as a fallback for untraced ops), the shared decision batch rides
// the leader's, and the leader's commit_batch span links every follower
// trace so the two sides are navigable from each other.
func TestCommitBatchTraceStitching(t *testing.T) {
	const nodes = 8
	top, m := ringTop(t, nodes)
	brokers := make([]int32, nodes)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	p := New(top, m, brokers)
	ft := NewFaultTransport(FaultConfig{Seed: 1}) // no faults: observation only
	prepTraces := map[uint64]bool{}
	batchTraces := map[uint64]bool{}
	ft.OnDeliver = func(msg Message) {
		switch msg.Type {
		case MsgPrepare:
			prepTraces[msg.Trace] = true
		case MsgBatch:
			batchTraces[msg.Trace] = true
		}
	}
	p.UseTransport(ft)

	tr := obs.NewTracer(4096)
	ctx, root := tr.Root(context.Background(), "test.batch_leader", 0)
	const follower1, follower2 = uint64(0x111), uint64(0x222)
	res := p.CommitBatch(ctx, []BatchOp{
		{Kind: BatchSetup, Path: []int32{0, 1, 2}, Bandwidth: 1, Trace: follower1},
		{Kind: BatchSetup, Path: []int32{3, 4, 5}, Bandwidth: 1, Trace: follower2},
		{Kind: BatchSetup, Path: []int32{6, 7}, Bandwidth: 1}, // untraced enqueue
	})
	root.End()
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}

	for _, want := range []uint64{follower1, follower2, root.TraceID} {
		if !prepTraces[want] {
			t.Errorf("no PREPARE carried trace %#x (saw %v)", want, prepTraces)
		}
	}
	if prepTraces[0] {
		t.Error("a PREPARE went out untraced despite the leader fallback")
	}
	if len(batchTraces) != 1 || !batchTraces[root.TraceID] {
		t.Errorf("decision batches rode traces %v, want only the leader's %#x", batchTraces, root.TraceID)
	}

	var commit *obs.Span
	for _, s := range tr.Trace(root.TraceID) {
		if s.Name == "ctrlplane.commit_batch" {
			commit = &s
			break
		}
	}
	if commit == nil {
		t.Fatal("leader trace has no commit_batch span")
	}
	links := map[uint64]bool{}
	for _, l := range commit.Links {
		links[l] = true
	}
	if !links[follower1] || !links[follower2] || len(links) != 2 {
		t.Fatalf("commit_batch links = %v, want exactly {%#x, %#x}", commit.Links, follower1, follower2)
	}
}

// TestTeardownRoundBroadcastsOnce: a round that opens no setup sends no
// PREPARE phase — its one broadcast is the BATCH that carries the releases.
func TestTeardownRoundBroadcastsOnce(t *testing.T) {
	const nodes = 8
	top, m := ringTop(t, nodes)
	brokers := make([]int32, nodes)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	p := New(top, m, brokers)
	res := p.CommitBatch(context.Background(), []BatchOp{{Kind: BatchSetup, Path: []int32{0, 1, 2}, Bandwidth: 1}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}

	tr := obs.NewTracer(256)
	ctx, root := tr.Root(context.Background(), "test.teardown", 0)
	if res := p.CommitBatch(ctx, []BatchOp{{Kind: BatchTeardown, Session: res[0].Session}}); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	root.End()
	var broadcasts []obs.Span
	for _, s := range tr.Trace(root.TraceID) {
		if s.Name == "2pc.broadcast" {
			broadcasts = append(broadcasts, s)
		}
	}
	if len(broadcasts) != 1 {
		t.Fatalf("teardown-only round: %d 2pc.broadcast spans, want 1", len(broadcasts))
	}
	if typ := broadcasts[0].Attrs[0]; typ.Key != "type" || typ.Val != MsgBatch.String() {
		t.Fatalf("the round's broadcast is annotated %v, want type=%s", broadcasts[0].Attrs, MsgBatch)
	}
}

// checkSpanTree asserts the structural invariants of one trace — a single
// root, every parent resolving inside the trace, and parent names that
// follow the protocol nesting — and returns the span count per name.
func checkSpanTree(t *testing.T, spans []obs.Span) map[string]int {
	t.Helper()
	byID := make(map[uint64]obs.Span, len(spans))
	counts := make(map[string]int, 8)
	for _, s := range spans {
		byID[s.SpanID] = s
		counts[s.Name]++
	}
	wantParent := map[string]string{
		"ctrlplane.setup": "",
		"2pc.broadcast":   "ctrlplane.setup",
		"2pc.attempt":     "2pc.broadcast",
		"2pc.backoff":     "2pc.attempt",
		"2pc.send":        "2pc.attempt",
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has unresolved parent %d", s.SpanID, s.Name, s.Parent)
		}
		if parent.TraceID != s.TraceID {
			t.Fatalf("span %d (%s) parent crosses traces", s.SpanID, s.Name)
		}
		if want, known := wantParent[s.Name]; known && want != "" && parent.Name != want {
			t.Fatalf("span %s has parent %s, want %s", s.Name, parent.Name, want)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want 1", roots)
	}
	return counts
}
