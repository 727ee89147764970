package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// FlightEvent is one entry in the flight recorder: a compact record of a
// control-plane step (message send, agent state-machine action, crash,
// recovery, breaker trip, commit-point decision, ...). Clock carries the
// subsystem's virtual time when it has one, so events line up with the
// deterministic chaos schedule; TraceID links the event to a request
// trace when one was active.
type FlightEvent struct {
	Seq       uint64    `json:"seq"`
	Wall      time.Time `json:"wall"`
	Clock     int64     `json:"clock,omitempty"`
	TraceID   uint64    `json:"trace_id,omitempty"`
	Subsystem string    `json:"subsystem"`
	Kind      string    `json:"kind"`
	Detail    string    `json:"detail,omitempty"`

	// format/args hold a Recordf detail whose rendering is deferred until
	// the ring is snapshotted — recording sits on the 2PC hot path, and
	// most ring slots are overwritten without ever being read.
	format string
	args   []any
}

// detail renders the event's detail string, formatting lazily-recorded
// arguments on demand.
func (e *FlightEvent) detail() string {
	if e.format != "" {
		return fmt.Sprintf(e.format, e.args...)
	}
	return e.Detail
}

// FlightRecorder is a bounded lock-free ring of recent events. It is
// always-on and cheap enough to leave running: recording is an atomic
// cursor bump plus a pointer store, and the ring overwrites — when an
// invariant trips, the last events *before* the violation are exactly the
// explanation a failing chaos seed needs to ship. All methods are
// nil-safe so subsystems can record unconditionally.
type FlightRecorder struct {
	ring []atomic.Pointer[FlightEvent]
	mask uint64
	pos  atomic.Uint64
	seq  atomic.Uint64
}

// NewFlightRecorder builds a recorder holding capacity events (rounded up
// to a power of two; default 4096).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 4096
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{ring: make([]atomic.Pointer[FlightEvent], n), mask: uint64(n - 1)}
}

// Record stamps and stores one event. Nil-safe no-op on a nil recorder.
func (f *FlightRecorder) Record(e FlightEvent) {
	if f == nil {
		return
	}
	e.Seq = f.seq.Add(1)
	e.Wall = time.Now()
	i := f.pos.Add(1) - 1
	f.ring[i&f.mask].Store(&e)
}

// Recordf is Record with a formatted detail string. Formatting is
// deferred until the ring is read (Events/Dump): Sprintf on every 2PC
// message event was a double-digit share of commit CPU, and overwritten
// slots never pay it. Arguments are captured by reference — pass values,
// not pointers to state that keeps mutating. Nil-safe: arguments are not
// evaluated on a nil recorder.
func (f *FlightRecorder) Recordf(subsystem, kind string, clock int64, format string, args ...any) {
	if f == nil {
		return
	}
	f.Record(FlightEvent{
		Subsystem: subsystem,
		Kind:      kind,
		Clock:     clock,
		format:    format,
		args:      args,
	})
}

// Len returns the number of events currently held (≤ ring capacity).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	n := f.pos.Load()
	if n > uint64(len(f.ring)) {
		return len(f.ring)
	}
	return int(n)
}

// Events snapshots the ring in Seq order, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.ring))
	for i := range f.ring {
		if e := f.ring[i].Load(); e != nil {
			ev := *e
			ev.Detail, ev.format, ev.args = e.detail(), "", nil
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump writes the recorder as JSONL: a header object first (the caller's
// context — chaos seed, the violated invariant, anything that makes the
// dump self-explanatory), then every held event oldest-first. This is the
// artifact a failing chaos run uploads: the seed replays the run, the
// events explain it.
func (f *FlightRecorder) Dump(w io.Writer, header map[string]any) error {
	enc := json.NewEncoder(w)
	hdr := make(map[string]any, len(header)+2)
	for k, v := range header {
		hdr[k] = v
	}
	hdr["dumped_at"] = time.Now().UTC().Format(time.RFC3339Nano)
	hdr["events"] = f.Len()
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, e := range f.Events() {
		if err := enc.Encode(&e); err != nil {
			return err
		}
	}
	return nil
}
