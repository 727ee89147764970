package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// flightInts is how many integers one event's detail can carry: a message
// event's from, to, session, epoch and message id.
const flightInts = 5

// FlightEvent is one entry in the flight recorder: a compact record of a
// control-plane step (message send, agent state-machine action, crash,
// recovery, breaker trip, commit-point decision, ...). Clock carries the
// subsystem's virtual time when it has one, so events line up with the
// deterministic chaos schedule. TraceID is there to link an event to a
// request trace; Record does not set it.
type FlightEvent struct {
	Seq       uint64    `json:"seq"`
	Wall      time.Time `json:"wall"`
	Clock     int64     `json:"clock,omitempty"`
	TraceID   uint64    `json:"trace_id,omitempty"`
	Subsystem string    `json:"subsystem"`
	Kind      string    `json:"kind"`
	Detail    string    `json:"detail,omitempty"`

	// format, str and ints are the detail unrendered (see Record): the
	// ring holds events by value, so recording copies fixed-size fields and
	// allocates nothing, and the slots overwritten unread never render.
	format string
	str    string
	ints   [flightInts]int64
}

// detail renders format: each %d verb takes the next of ints, %s takes
// str, %% is a percent sign. For the verbs Record documents this is
// byte-for-byte what fmt.Sprintf prints.
func (e *FlightEvent) detail() string {
	b := make([]byte, 0, len(e.format)+len(e.str)+8*flightInts)
	next := 0
	for i := 0; i < len(e.format); i++ {
		c := e.format[i]
		if c != '%' || i+1 == len(e.format) {
			b = append(b, c)
			continue
		}
		i++
		switch verb := e.format[i]; {
		case verb == 'd' && next < flightInts:
			b = strconv.AppendInt(b, e.ints[next], 10)
			next++
		case verb == 's':
			b = append(b, e.str...)
		case verb == '%':
			b = append(b, '%')
		default:
			b = append(b, '%', verb)
		}
	}
	return string(b)
}

// FlightRecorder is a bounded ring of recent events. It is always-on and
// cheap enough to leave running: recording writes one fixed-size slot in
// place under a mutex and allocates nothing, and the ring overwrites — when
// an invariant trips, the last events *before* the violation are exactly
// the explanation a failing chaos seed needs to ship. All methods are
// nil-safe so subsystems can record unconditionally.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []FlightEvent
	mask uint64
	n    uint64 // events recorded; the newest is Seq n, in slot (n-1)&mask
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
	return &FlightRecorder{ring: make([]FlightEvent, n), mask: uint64(n - 1)}
}

// Record stamps one event and writes it into the ring in place. Its detail
// is format with each %d verb taking the next of ints (at most five) and
// each %s verb taking str; %% is a percent sign, and no other verb is
// understood. Rendering waits for Events or Dump: recording sits on the 2PC
// hot path, so it boxes nothing and allocates nothing. Nil-safe no-op on a
// nil recorder.
func (f *FlightRecorder) Record(subsystem, kind string, clock int64, format, str string, ints ...int64) {
	if f == nil {
		return
	}
	wall := time.Now()
	f.mu.Lock()
	f.n++
	e := &f.ring[(f.n-1)&f.mask]
	*e = FlightEvent{Seq: f.n, Wall: wall, Clock: clock, Subsystem: subsystem, Kind: kind, format: format, str: str}
	copy(e.ints[:], ints)
	f.mu.Unlock()
}

// Len returns the number of events currently held (≤ ring capacity).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(min(f.n, uint64(len(f.ring))))
}

// Events snapshots the ring in Seq order, oldest first, each event's
// Detail rendered.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	held := min(f.n, uint64(len(f.ring)))
	out := make([]FlightEvent, 0, held)
	for seq := f.n - held; seq < f.n; seq++ {
		out = append(out, f.ring[seq&f.mask])
	}
	f.mu.Unlock()
	for i := range out {
		out[i].Detail = out[i].detail()
	}
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
