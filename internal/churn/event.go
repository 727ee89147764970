// Package churn is the online topology-dynamics subsystem: a typed event
// stream over a live topology (links and ASes come and go, IXP memberships
// change, brokers fail and recover), deterministic seeded generators with
// Poisson arrivals and degree-biased targeting, an Applier that mutates the
// live view incrementally and reports each event's blast radius, and a
// Healer that repairs the broker plane after damage: re-selecting brokers
// with broker.MaintainAvoiding, re-pathing affected control-plane sessions
// through 2PC (aborting them cleanly when no dominated path survives), and
// staling cached paths.
//
// The paper's §7 argues a broker coalition must survive exactly this kind
// of flux; the offline primitives (sim.FailBrokers,
// broker.MaintainAvoiding) answer the question on frozen snapshots, this
// package answers it live.
package churn

import (
	"encoding/json"
	"fmt"
)

// EventType enumerates topology-churn events.
type EventType uint8

// Churn event types. Link events carry (U, V); node and broker events carry
// Node. Member events are link events restricted to AS–IXP membership
// links, modelling IXP membership flux.
const (
	LinkFail EventType = iota + 1
	LinkRecover
	NodeLeave
	NodeJoin
	MemberLeave
	MemberJoin
	BrokerFail
	BrokerRecover
)

var eventNames = [...]string{
	LinkFail:      "link_fail",
	LinkRecover:   "link_recover",
	NodeLeave:     "node_leave",
	NodeJoin:      "node_join",
	MemberLeave:   "member_leave",
	MemberJoin:    "member_join",
	BrokerFail:    "broker_fail",
	BrokerRecover: "broker_recover",
}

// String returns the trace/JSON name of the event type.
func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// ParseEventType converts a trace/JSON name back to an EventType.
func ParseEventType(s string) (EventType, error) {
	for i, name := range eventNames {
		if name != "" && name == s {
			return EventType(i), nil
		}
	}
	return 0, fmt.Errorf("churn: unknown event type %q", s)
}

// IsLink reports whether the event type addresses a link (U, V).
func (t EventType) IsLink() bool {
	switch t {
	case LinkFail, LinkRecover, MemberLeave, MemberJoin:
		return true
	}
	return false
}

// Event is one topology-churn event.
type Event struct {
	// Seq orders events within a trace (assigned by generators/appliers).
	Seq int
	// Type selects the mutation.
	Type EventType
	// Node is the target of node/broker events.
	Node int32
	// U, V are the endpoints of link/member events.
	U, V int32
}

// eventJSON is the wire shape of an Event (the /churn admin endpoint).
type eventJSON struct {
	Seq  int    `json:"seq,omitempty"`
	Type string `json:"type"`
	Node int32  `json:"node,omitempty"`
	U    int32  `json:"u,omitempty"`
	V    int32  `json:"v,omitempty"`
}

// MarshalJSON encodes the event with its type as a string name.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{Seq: e.Seq, Type: e.Type.String(), Node: e.Node, U: e.U, V: e.V})
}

// UnmarshalJSON decodes the wire shape, validating the type name.
func (e *Event) UnmarshalJSON(b []byte) error {
	var w eventJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	typ, err := ParseEventType(w.Type)
	if err != nil {
		return err
	}
	*e = Event{Seq: w.Seq, Type: typ, Node: w.Node, U: w.U, V: w.V}
	return nil
}

// String renders the event without its sequence number: "link_fail 3 17" or
// "broker_fail 42".
func (e Event) String() string {
	if e.Type.IsLink() {
		return fmt.Sprintf("%s %d %d", e.Type, e.U, e.V)
	}
	return fmt.Sprintf("%s %d", e.Type, e.Node)
}
