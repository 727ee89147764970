package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Record("ctrlplane", "send", int64(i), "msg %d", "", int64(i))
	}
	evs := f.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	// Oldest-first, newest retained.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatal("events not in Seq order")
		}
	}
	if evs[0].Detail != "msg 12" || evs[len(evs)-1].Detail != "msg 19" {
		t.Fatalf("ring kept %q..%q, want msg 12..msg 19", evs[0].Detail, evs[len(evs)-1].Detail)
	}
	if f.n != 20 || f.Len() != 8 {
		t.Fatalf("recorded %d len %d", f.n, f.Len())
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record("x", "y", 0, "fmt %d", "", 1)
	if f.Events() != nil || f.Len() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

// TestFlightDetailMatchesSprintf: a detail rendered from the typed fields
// reads exactly what fmt.Sprintf printed for the same verbs — the content a
// flight dump carried before events were typed.
func TestFlightDetailMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		format string
		str    string
		ints   []int64
		args   []any // what fmt.Sprintf gets for the same detail
	}{
		{"%s %d->%d session %d.%d msg %d", "PREPARE", []int64{-1, 8, 42, 1, 35352},
			[]any{"PREPARE", int32(-1), int32(8), 42, uint32(1), uint64(35352)}},
		{"%s to %d session %d.%d: BATCH-ACK", "BATCH", []int64{-3, 7, 2}, []any{"BATCH", int32(-3), 7, uint32(2)}},
		{"session %d.%d %s", "COMMIT", []int64{9, 1}, []any{9, uint32(1), "COMMIT"}},
		{"%d open until tick %d", "", []int64{-9223372036854775808, 9223372036854775807},
			[]any{int64(-9223372036854775808), int64(9223372036854775807)}},
		{"100%% of %s", "links", nil, []any{"links"}},
		{"%s", "", nil, []any{""}},
		{"", "", nil, nil},
	} {
		f := NewFlightRecorder(1)
		f.Record("test", "k", 0, c.format, c.str, c.ints...)
		if got, want := f.Events()[0].Detail, fmt.Sprintf(c.format, c.args...); got != want {
			t.Errorf("format %q: detail %q, Sprintf %q", c.format, got, want)
		}
	}
}

// TestFlightRecordAllocatesNothing pins the recorder's hot-path cost: a
// typed record — a string and five integers, as Delivery.Send writes —
// costs 0 allocations, on a live recorder and on a nil one.
func TestFlightRecordAllocatesNothing(t *testing.T) {
	f := NewFlightRecorder(64)
	var nilRec *FlightRecorder
	typ, from, to := "PREPARE", int32(-1), int32(52000)
	for name, rec := range map[string]*FlightRecorder{"live": f, "nil": nilRec} {
		if n := testing.AllocsPerRun(1000, func() {
			rec.Record("ctrlplane", "send", 7, "%s %d->%d session %d.%d msg %d",
				typ, int64(from), int64(to), 123456, 1, 987654)
		}); n != 0 {
			t.Errorf("%s recorder: %v allocs per typed record, want 0", name, n)
		}
	}
}

func TestFlightRecorderDump(t *testing.T) {
	f := NewFlightRecorder(16)
	f.Record("ctrlplane", "crash", 42, "broker %d", "", 3)
	f.Record("ctrlplane", "decide", 43, "session %d %s", "commit", 7)

	var buf bytes.Buffer
	if err := f.Dump(&buf, map[string]any{"chaos_seed": int64(99), "violation": "ledger drift"}); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	if !sc.Scan() {
		t.Fatal("empty dump")
	}
	var hdr map[string]any
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header not JSON: %v", err)
	}
	if hdr["chaos_seed"] != float64(99) || hdr["violation"] != "ledger drift" || hdr["events"] != float64(2) {
		t.Fatalf("header = %v", hdr)
	}
	var events []FlightEvent
	for sc.Scan() {
		var e FlightEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("event line not JSON: %v", err)
		}
		events = append(events, e)
	}
	if len(events) != 2 || events[0].Kind != "crash" || events[1].Kind != "decide" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Detail != "broker 3" || events[1].Detail != "session 7 commit" || events[1].Wall.IsZero() {
		t.Fatalf("events = %+v", events)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record("test", "tick", int64(i), "worker %d", "", int64(w))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		evs := f.Events()
		for j := 1; j < len(evs); j++ {
			if evs[j].Seq != evs[j-1].Seq+1 {
				t.Errorf("snapshot not contiguous: seq %d after %d", evs[j].Seq, evs[j-1].Seq)
				break
			}
		}
	}
	wg.Wait()
	if f.n != 4000 || f.Len() != 128 {
		t.Fatalf("recorded = %d, len %d, want 4000, 128", f.n, f.Len())
	}
}
