package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Recordf("ctrlplane", "send", int64(i), "msg %d", i)
	}
	evs := f.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	// Oldest-first, newest retained.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("events not in Seq order")
		}
	}
	if evs[len(evs)-1].Detail != "msg 19" {
		t.Fatalf("newest event lost: %+v", evs[len(evs)-1])
	}
	if f.pos.Load() != 20 || f.Len() != 8 {
		t.Fatalf("recorded %d len %d", f.pos.Load(), f.Len())
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEvent{Subsystem: "x", Kind: "y"})
	f.Recordf("x", "y", 0, "fmt %d", 1)
	if f.Events() != nil || f.Len() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestFlightRecorderDump(t *testing.T) {
	f := NewFlightRecorder(16)
	f.Recordf("ctrlplane", "crash", 42, "broker 3")
	f.Recordf("ctrlplane", "decide", 43, "session 7 commit")

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
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Recordf("test", "tick", int64(i), "worker %d", w)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		_ = f.Events()
	}
	wg.Wait()
	if f.pos.Load() != 4000 {
		t.Fatalf("recorded = %d, want 4000", f.pos.Load())
	}
}
