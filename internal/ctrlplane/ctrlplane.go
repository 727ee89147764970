// Package ctrlplane simulates the distributed control plane of the broker
// coalition: one agent per broker owns the capacity ledger of its incident
// links, and end-to-end QoS sessions are set up with a two-phase commit
// across the agents along a B-dominated path. The paper assigns brokers
// "network performance measurement, control, resource negotiation" duties
// without an implementation; this package provides a deterministic
// message-level realization so the coordination cost and failure behaviour
// can be measured.
//
// The protocol is failure-realistic: messages travel over a pluggable
// Transport (the default is a lossless FIFO bus; a FaultConfig injects
// seeded loss, duplication, delay, reordering, and partitions), every
// message carries a monotonically increasing id so retransmissions are
// idempotent, the coordinator retries unacknowledged messages one virtual
// tick apart under the caller's context, a per-broker circuit breaker
// fast-fails setups through persistently unresponsive brokers, and each
// agent write-ahead-logs its ledger mutations so a crashed broker recovers
// its exact reservation state (in-doubt sessions are resolved against the
// coordinator's durable commit-point record).
//
// There is one commit protocol. Every lifecycle entry point — Setup,
// Teardown, Repath, the split-phase PrepareOnPath/CommitPrepared/
// AbortPrepared and the group-commit CommitBatch — is a composition of the
// same three steps: open an attempt, prepare a set of attempts in one
// PREPARE broadcast, and decide, which records every commit, abort and
// release durably and delivers each touched broker one BATCH record. An
// agent's state is the fold of its log: every change is a WAL record, logged
// and then applied by one function, apply, which is also what a recovery or a
// replay folds over the log.
//
// Delivery — retries, reply settling, the backlog of decided-but-undelivered
// requests and the circuit breakers — is the Delivery type. A Plane holds
// one toward its agents; the federation Fabric holds another toward peer
// regions and sends them the same BATCH record.
package ctrlplane

import (
	"context"
	"fmt"
	"math"
	"slices"

	"brokerset/internal/obs"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// Coordinator is the reserved address of the 2PC coordinator on the
// message bus (agents are addressed by their broker node id).
const Coordinator int32 = -1

// PeerAddr returns the bus address of region r's coordinator on a
// federation peer transport. Region coordinators share the address space
// with agents and the local coordinator but occupy -2 and below, so one
// FaultTransport can partition or rate-limit them like any broker.
func PeerAddr(region int) int32 { return -2 - int32(region) }

// PeerRegion inverts PeerAddr (ok=false for agent or Coordinator
// addresses).
func PeerRegion(addr int32) (int, bool) {
	if addr > -2 {
		return 0, false
	}
	return int(-2 - addr), true
}

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol message types. There are two requests, PREPARE and BATCH, each
// paired with an acknowledgement so the sender can retry until delivery is
// confirmed; X-PREPARE is PREPARE one level up, from a home region's
// coordinator to a transit region's, and the same BATCH decision record
// travels on both levels. Values 4–9 carried the per-session
// COMMIT/ABORT/RELEASE and their acks, values 13–19 their cross-region
// X-COMMIT … X-RELEASE-ACK counterparts, before the batch record replaced
// them; they are retired, not reused, and DecodeMessage rejects them.
const (
	MsgPrepare MsgType = iota + 1
	MsgPrepareAck
	MsgPrepareNack
	// MsgXPrepare asks a transit region's sub-coordinator to hold one
	// segment of a stitched path between the two border nodes in Hop.
	MsgXPrepare MsgType = iota + 7
	MsgXPrepareAck
	MsgXPrepareNack
	// MsgGossip carries one region's digest to a peer: region epoch, one
	// border broker's liveness, and connectivity. Fire-and-forget.
	MsgGossip MsgType = iota + 14
	// MsgBatch carries one decision record: every commit, abort, and release
	// entry of the round that concerns the destination, in one message. An
	// agent write-ahead-logs the whole record once, then applies each entry
	// with per-session fencing; a region sub-coordinator applies each entry
	// to its durable sub-transaction record.
	MsgBatch
	MsgBatchAck
	// MsgBatchNack refuses a decision record: a transit region whose
	// prepared sub-transaction lease already expired must refuse a late
	// commit rather than ack it. Agents never send it.
	MsgBatchNack
)

var msgNames = [...]string{
	MsgPrepare:      "PREPARE",
	MsgPrepareAck:   "PREPARE-ACK",
	MsgPrepareNack:  "PREPARE-NACK",
	MsgXPrepare:     "X-PREPARE",
	MsgXPrepareAck:  "X-PREPARE-ACK",
	MsgXPrepareNack: "X-PREPARE-NACK",
	MsgGossip:       "GOSSIP",
	MsgBatch:        "BATCH",
	MsgBatchAck:     "BATCH-ACK",
	MsgBatchNack:    "BATCH-NACK",
}

// known reports whether t is a message type of the current protocol.
func (t MsgType) known() bool { return int(t) < len(msgNames) && msgNames[t] != "" }

// String returns the wire name of the message type.
func (t MsgType) String() string {
	if t.known() {
		return msgNames[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// ackFor maps a request type to its acknowledgement type (ok=false for
// types that are not requests).
func ackFor(t MsgType) (MsgType, bool) {
	switch t {
	case MsgPrepare:
		return MsgPrepareAck, true
	case MsgXPrepare:
		return MsgXPrepareAck, true
	case MsgBatch:
		return MsgBatchAck, true
	}
	return 0, false
}

// Message is one control-plane message. From/To are broker ids
// (Coordinator addresses the 2PC coordinator). MsgID is unique per logical
// message — retransmissions reuse it, which is what makes delivery
// idempotent: agents deduplicate on it. AckFor carries the MsgID an
// acknowledgement answers. Epoch scopes the message to one setup
// attempt of the session (see Session.Epoch).
type Message struct {
	From, To  int32
	Type      MsgType
	SessionID int
	Epoch     uint32
	MsgID     uint64
	AckFor    uint64
	Hop       [2]int32
	Bandwidth float64
	// Lease is the hold's time-to-live in virtual clock ticks, granted with
	// a PREPARE (0 = no lease; the hold waits for a decision forever).
	Lease uint32
	// Trace is the distributed trace ID of the request this message works
	// for (0 = untraced). It rides the wire so a remote sub-coordinator can
	// stitch its spans into the originating trace.
	Trace uint64
	// Watermark is the sender's fencing watermark (PREPARE, X-PREPARE and
	// BATCH; 0 on replies and gossip): the lowest MsgID it may still need
	// answered. A receiver treats a request below the highest watermark it
	// has seen as a straggler — answered, never applied — and forgets what
	// it remembered of ids below it.
	Watermark uint64
	// Batch is the group-commit decision record (Type == MsgBatch only;
	// variable-length on the wire, see Encode).
	Batch []BatchEntry
}

// Stats counts control-plane activity.
type Stats struct {
	Messages  int `json:"messages"`
	Commits   int `json:"commits"`
	Aborts    int `json:"aborts"`
	Teardowns int `json:"teardowns"`
	// Repaths counts sessions successfully moved to a new path after
	// topology damage; RepathAborts counts sessions gracefully aborted
	// because no dominated path survived (or capacity ran out).
	Repaths      int `json:"repaths"`
	RepathAborts int `json:"repath_aborts"`
	// Retries counts retransmitted messages (including backlog re-sends);
	// Timeouts counts per-broker RPCs that exhausted every attempt.
	Retries  int `json:"retries"`
	Timeouts int `json:"timeouts"`
	// DupsDropped counts messages agents deduplicated by MsgID.
	DupsDropped int `json:"dups_dropped"`
	// Circuit-breaker activity: trips, and setups fast-failed through an
	// open breaker.
	BreakerTrips     int `json:"breaker_trips"`
	BreakerFastFails int `json:"breaker_fast_fails"`
	// Recoveries counts WAL replays; InDoubt* count prepared-but-undecided
	// sessions resolved during recovery by the coordinator's commit-point
	// record.
	Recoveries       int `json:"recoveries"`
	InDoubtCommitted int `json:"in_doubt_committed"`
	InDoubtAborted   int `json:"in_doubt_aborted"`
	// Backlogged is the current count of decided-but-undelivered messages
	// still being re-driven toward unreachable agents.
	Backlogged int `json:"backlogged"`
	// LeaseExpiries counts prepared-but-undecided hold sets presumed-aborted
	// by lease expiry (sessions abandoned mid-setup self-cleaning without
	// teardown traffic).
	LeaseExpiries int `json:"lease_expiries"`
	// Group-commit activity: BatchRounds counts CommitBatch invocations
	// that reached the wire, BatchOps the lifecycle operations they carried
	// (ops per round is the amortization factor).
	BatchRounds int `json:"batch_rounds"`
	BatchOps    int `json:"batch_ops"`
}

// SessionState is the lifecycle state of a setup.
type SessionState uint8

// Session lifecycle states.
const (
	StateCommitted SessionState = iota + 1
	StateAborted
	StateReleased
	// StatePrepared marks a split-phase setup whose holds are placed but
	// whose decision is not yet durably recorded (see PrepareOnPath).
	StatePrepared
)

// String names the state for logs and API payloads.
func (s SessionState) String() string {
	switch s {
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	case StateReleased:
		return "released"
	case StatePrepared:
		return "prepared"
	default:
		return fmt.Sprintf("SessionState(%d)", uint8(s))
	}
}

// Session is one attempt of an end-to-end QoS session set up through the
// control plane. Once Setup, CommitBatch, PrepareOnPath or Repath hands it
// out, its identity and route — ID, Epoch, Path, Bandwidth and the hop
// owners — are never written again: a caller may read them without a lock
// and keep the record wherever it likes. Repath answers with a new record
// for the same ID at the next epoch and leaves this one StateReleased. Only
// State moves after hand-out, under the plane's serialization.
type Session struct {
	ID        int
	Path      []int32
	Bandwidth float64
	State     SessionState
	// Epoch counts setup attempts (Setup is epoch 1; every Repath
	// bumps it). Protocol messages are scoped by (ID, Epoch), so delayed
	// stragglers from a superseded path can never touch the current one.
	Epoch uint32
	// owners[i] is the broker agent owning hop (Path[i], Path[i+1]).
	owners []int32
}

// RetryConfig tunes the coordinator's delivery machinery. The zero value
// takes serving-grade defaults.
type RetryConfig struct {
	// MaxAttempts bounds send attempts per message per phase (default 6).
	// Time is virtual: retries happen immediately, the clock and the
	// transport advancing one step per retry round.
	MaxAttempts int
	// BreakerThreshold is the consecutive-timeout count that trips a
	// broker's circuit breaker (default 3); BreakerCooldown is how many
	// virtual clock ticks it stays open (default 64).
	BreakerThreshold int
	BreakerCooldown  int
	// LeaseTTL, when > 0, leases every PREPARE hold for that many virtual
	// clock ticks: a hold whose lease lapses with no decision recorded is
	// presumed-aborted by the next tick's sweep, so a setup abandoned by a
	// crashed coordinator self-cleans without teardown traffic. Set it well
	// above MaxAttempts (each retry round is one tick) or in-flight setups
	// expire themselves. 0 disables leasing.
	LeaseTTL int
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 6
	}
	if rc.BreakerThreshold <= 0 {
		rc.BreakerThreshold = 3
	}
	if rc.BreakerCooldown <= 0 {
		rc.BreakerCooldown = 64
	}
	return rc
}

// Plane is the coalition control plane.
type Plane struct {
	top     *topology.Topology
	engine  *routing.Engine
	metrics *routing.Metrics
	inB     []bool
	agents  map[int32]*agent
	crashed map[int32]bool

	// avail and owner are the capacity ledger (ledger.go): per link, at its
	// dense link id (graph.LinkOf), the residual the coalition accounts for
	// it and the agent that owns its row (-1: unmanaged).
	avail []float64
	owner []int32

	// d delivers PREPAREs and decision records to the agents: retries,
	// backlog and per-broker circuit breakers live there.
	d *Delivery
	// wals is each member's durable write-ahead log, keyed by node id so
	// it survives crashes and membership changes; a departure frees it.
	wals map[int32]*wal
	// checkpoints counts checkpoints appended to any log.
	checkpoints int
	// decided is the coordinator's durable decision record: commit points
	// and abort decisions per setup attempt, presumed aborts included —
	// wherever an agent gives back an undecided hold (resolve), the abort is
	// recorded here first. Recovery resolves in-doubt holds against it. An
	// attempt with no entry is presumed aborted: an entry goes (retire) once
	// the watermark has passed every record that carried it, so no agent can
	// still hold for it in doubt. retiring lists the entries in the order
	// they were recorded, each with the last MsgID it waits on.
	decided  map[sessKey]bool
	retiring []retiree
	// pinned maps every attempt prepared and not yet decided to its first
	// PREPARE's MsgID, which holds the watermark down (Delivery.floor). An
	// attempt whose abort was presumed (resolve), or that a coordinator
	// crash orphaned, is no longer pinned, so a StatePrepared session that
	// is not pinned can only be aborted.
	pinned map[sessKey]uint64

	// batchPrepareCrash and batchWALCrash are chaos seams: when non-nil and
	// returning true they simulate, respectively, the coordinator dying
	// inside CommitBatch (after phase 1, before any decision is recorded)
	// and a broker dying between its batch WAL append and its ack, its
	// in-memory apply lost, whichever entry point sent the record.
	batchPrepareCrash func() bool
	batchWALCrash     func(b int32) bool
	// walAppended, when non-nil, is handed every record appended to any
	// broker's log, checkpoints included, right after the append and before
	// it is applied — the seam the checkpoint oracle replays the full history
	// from.
	walAppended func(b int32, r walRecord)

	// flight records recent protocol events for post-mortem dumps; nil
	// (the default) disables recording at zero cost.
	flight *obs.FlightRecorder

	// round is CommitBatch's per-round scratch.
	round batchRound

	stats  Stats
	nextID int
	// version counts mutations of committed link capacity (commit,
	// release); path caches key their invalidation off it.
	version uint64
}

// New builds a control plane for the broker set. metrics supplies link
// capacities (nil = routing.DefaultMetrics with a fixed seed); each link
// with at least one broker endpoint is assigned to exactly one owning
// agent (the lower-id broker endpoint). The plane starts on a lossless
// FIFO transport; see UseTransport and SetRetryConfig.
func New(top *topology.Topology, metrics *routing.Metrics, brokers []int32) *Plane {
	if metrics == nil {
		metrics = routing.DefaultMetrics(top, nil)
	}
	p := &Plane{
		top:     top,
		engine:  routing.NewEngine(top, metrics, brokers),
		metrics: metrics,
		inB:     make([]bool, top.NumNodes()),
		agents:  make(map[int32]*agent, len(brokers)),
		crashed: make(map[int32]bool),
		wals:    make(map[int32]*wal),
		decided: make(map[sessKey]bool),
		pinned:  make(map[sessKey]uint64),
	}
	p.d = NewDelivery("ctrlplane", NewFaultTransport(FaultConfig{}), RetryConfig{})
	p.d.Dispatch = p.dispatch
	p.d.Down = func(b int32) bool { return p.crashed[b] }
	p.d.floor = func() uint64 {
		lo := uint64(math.MaxUint64)
		for _, id := range p.pinned {
			lo = min(lo, id)
		}
		return lo
	}
	for _, b := range brokers {
		p.inB[b] = true
	}
	// Seed the ledger: a link with a broker endpoint is owned by the agent
	// ownerOf names; the rest are unmanaged. A second walk lays every broker's
	// first checkpoint rows out in one array, broker after broker — each link
	// at its capacity, read off the metrics' per-link column by the link id
	// the walk already has; next[b] is where b's next row goes. Starting each
	// agent applies its checkpoint to the columns.
	g := top.Graph
	p.avail = make([]float64, g.NumEdges())
	p.owner = make([]int32, g.NumEdges())
	capacity := metrics.Capacities()
	next := make([]int32, top.NumNodes())
	g.Links(func(a, _, u, v int) {
		l := g.LinkOfArc(u, a)
		owner, ok := p.ownerOf(int32(u), int32(v))
		if !ok {
			p.owner[l] = -1
			return
		}
		p.owner[l] = owner
		next[owner]++
	})
	total := int32(0)
	for _, b := range p.Brokers() {
		total, next[b] = total+next[b], total
	}
	rows := make([]ledgerRow, total)
	g.Links(func(a, _, u, _ int) {
		l := g.LinkOfArc(u, a)
		if owner := p.owner[l]; owner >= 0 {
			rows[next[owner]] = ledgerRow{int32(l), capacity[l]}
			next[owner]++
		}
	})
	start := int32(0)
	for _, b := range p.Brokers() {
		p.start(b, &image{Rows: rows[start:next[b]:next[b]]})
		start = next[b]
	}
	return p
}

// UseTransport replaces the message transport (default: lossless FIFO).
// Swap in a FaultTransport with rates set to subject the protocol to seeded
// loss, duplication, delay, reordering, and partitions. Call it before any
// protocol activity.
func (p *Plane) UseTransport(t Transport) { p.d.Transport = t }

// SetRetryConfig replaces the retry/breaker tuning; zero fields take
// defaults.
func (p *Plane) SetRetryConfig(rc RetryConfig) { p.d.Retry = rc.withDefaults() }

// Brokers returns the coalition membership in ascending id order.
func (p *Plane) Brokers() []int32 {
	out := make([]int32, 0, len(p.agents))
	for u, in := range p.inB {
		if in {
			out = append(out, int32(u))
		}
	}
	return out
}

// SickBrokers returns the brokers whose circuit breaker is currently open
// (persistently unresponsive but not known-crashed), ascending. Healers
// feed this into their avoid mask so re-selection routes around them.
func (p *Plane) SickBrokers() []int32 {
	var out []int32
	for u, in := range p.inB {
		if in && p.d.BreakerOpen(int32(u)) {
			out = append(out, int32(u))
		}
	}
	return out
}

// Stats returns a copy of the counters.
func (p *Plane) Stats() Stats {
	st := p.stats
	st.Messages, st.Retries, st.Timeouts, st.BreakerTrips = p.d.Sent, p.d.Retries, p.d.Timeouts, p.d.BreakerTrips
	st.Backlogged = p.d.Backlogged()
	return st
}

// Version returns the count of committed capacity mutations (commits and
// releases). A cached path computed at version v is stale once Version()
// moves past v: some link's residual capacity changed underneath it.
func (p *Plane) Version() uint64 { return p.version }

// Setup sets up a bw-Gbps session from src to dst over the best
// B-dominated path with bw free on every hop (the search is floored at
// max(opts.MinBandwidth, bw): a thinner path could only nack its PREPARE),
// running the retrying two-phase commit across the hop
// owners under ctx (which bounds the whole setup, retries included). On
// capacity shortage, an unresponsive or crashed owner, or deadline expiry
// the setup aborts with all holds released, and an error is returned.
func (p *Plane) Setup(ctx context.Context, src, dst int, bw float64, opts routing.Options) (*Session, error) {
	if bw <= 0 {
		return nil, fmt.Errorf("ctrlplane: bandwidth must be > 0, got %f", bw)
	}
	ctx, span := obs.StartSpan(ctx, "ctrlplane.setup")
	defer span.End()
	span.Annotatef("route", "%d->%d", src, dst)
	p.tick()
	path, err := p.engine.BestPath(src, dst, opts.Reserving(bw))
	if err != nil {
		span.Annotate("outcome", "no_path")
		return nil, fmt.Errorf("ctrlplane: no dominated path: %w", err)
	}
	s, err := p.begin(path.Nodes, bw)
	if err == nil {
		err = p.settle(ctx, s)
	}
	if err != nil {
		span.Annotate("outcome", "aborted")
		return nil, err
	}
	span.Annotate("outcome", "committed")
	return s, nil
}

// tick advances virtual time by one operation, sweeps lapsed leases, lazily
// re-drives the backlog of undelivered decisions, and retires the decisions
// the watermark has passed.
func (p *Plane) tick() {
	p.d.Tick()
	if p.d.Retry.LeaseTTL > 0 {
		p.ExpireLeases()
	}
	p.d.Flush()
	p.retire()
}

// retiree is one decided entry waiting for the watermark: after is the last
// MsgID that can carry its decision to an agent.
type retiree struct {
	key   sessKey
	after uint64
}

// setDecided enters the coordinator's decision about attempt key and unpins
// it. The entry retires once the watermark passes every id drawn so far, so
// a decision is entered after the records that carry it have drawn theirs.
func (p *Plane) setDecided(key sessKey, commit bool) {
	p.decided[key] = commit
	delete(p.pinned, key)
	p.retiring = append(p.retiring, retiree{key, p.d.nextMsg})
}

// retire forgets the decisions the watermark has passed: every record that
// carried one has been acknowledged (or its target left, settled by depart),
// so no agent holds for the attempt in doubt, and a missing entry reads as
// the abort it would be presumed to be. Entries were queued with
// nondecreasing after, so the ones to go are a prefix.
func (p *Plane) retire() {
	q := p.retiring
	n := 0
	for n < len(q) && q[n].after < p.d.w {
		delete(p.decided, q[n].key)
		n++
	}
	if n > 0 { // what is left moves to the front: the queue keeps its array
		p.retiring = q[:copy(q, q[n:])]
	}
}

// Tick advances virtual time one step without running an operation: lapsed
// leases are swept and the backlog re-driven. The federation fabric calls it
// on every member plane each fabric tick so lease expiry keeps pace even in
// regions with no local traffic (a crashed home coordinator must not freeze
// a transit region's clock).
func (p *Plane) Tick() { p.tick() }

// checkSetup validates a setup request over an externally computed path.
func checkSetup(nodes []int32, bw float64) error {
	if bw <= 0 {
		return fmt.Errorf("ctrlplane: bandwidth must be > 0, got %f", bw)
	}
	if len(nodes) < 2 {
		return fmt.Errorf("ctrlplane: path needs >= 2 nodes, got %d", len(nodes))
	}
	return nil
}

// begin validates a setup request, allocates its session and opens the
// first attempt over nodes (copied: the session owns its path).
func (p *Plane) begin(nodes []int32, bw float64) (*Session, error) {
	if err := checkSetup(nodes, bw); err != nil {
		return nil, err
	}
	p.nextID++
	s := &Session{ID: p.nextID, Bandwidth: bw}
	return s, p.open(s, append([]int32(nil), nodes...))
}

// open starts the attempt a record not yet handed out stands for, over
// nodes: the epoch after the record's, hop owners resolved under the
// current membership into an array of its own, and a fast-fail through any
// open circuit breaker — no retry budget is burnt on a broker that just
// timed out repeatedly; the healer will route around it. On error the
// session is StateAborted and nothing is held anywhere.
func (p *Plane) open(s *Session, nodes []int32) error {
	s.Epoch++
	s.Path = nodes
	var err error
	if s.owners, err = p.hopOwners(nodes); err != nil {
		s.State = StateAborted
		return err
	}
	for _, owner := range s.owners {
		if p.d.BreakerOpen(owner) {
			p.setDecided(sessKey{s.ID, s.Epoch}, false)
			p.flight.Record("ctrlplane", "decide", int64(p.d.Now()), "session %d.%d ABORT (breaker %d open)", "", int64(s.ID), int64(s.Epoch), int64(owner))
			p.stats.BreakerFastFails++
			p.stats.Aborts++
			s.State = StateAborted
			return fmt.Errorf("ctrlplane: setup %d aborted: broker %d circuit open", s.ID, owner)
		}
	}
	return nil
}

// prepare runs phase 1 for a set of opened attempts in one broadcast: every
// hop of every attempt is PREPAREd at its owner (leased when
// RetryConfig.LeaseTTL is set). traces[i], when non-zero, is the trace the
// i-th attempt's PREPAREs ride instead of ctx's, so on the wire each op
// stays attributable to the request that asked for it. The result is
// index-aligned: nil leaves the attempt StatePrepared with every hop held;
// an error names why it cannot commit. Nothing is decided here — the caller
// follows with decide for every attempt, failed ones included, because some
// of their hops may be held. Each attempt's PREPAREs take consecutive ids,
// and the first pins the watermark until the attempt is decided. With no
// attempt there is no broadcast: a teardown-only round goes straight to
// decide, whose broadcast advances the watermark as an empty one would have.
func (p *Plane) prepare(ctx context.Context, ss []*Session, traces []uint64) []error {
	if len(ss) == 0 {
		return nil
	}
	n := 0
	for _, s := range ss {
		n += len(s.owners)
	}
	msgs := make([]Message, 0, n)
	of := make(map[uint64]int, n) // PREPARE MsgID -> index into ss
	for i, s := range ss {
		trace := obs.TraceIDFrom(ctx)
		if traces != nil && traces[i] != 0 {
			trace = traces[i]
		}
		for h, owner := range s.owners {
			m := Message{
				From: Coordinator, To: owner, Type: MsgPrepare,
				SessionID: s.ID, Epoch: s.Epoch, MsgID: p.d.NextID(),
				Hop: hopKey(s.Path[h], s.Path[h+1]), Bandwidth: s.Bandwidth,
				Lease: uint32(p.d.Retry.LeaseTTL), Trace: trace,
			}
			if h == 0 {
				p.pinned[sessKey{s.ID, s.Epoch}] = m.MsgID
			}
			of[m.MsgID] = i
			msgs = append(msgs, m)
		}
	}
	refused, unanswered := p.d.Broadcast(ctx, msgs)
	nacked := make([]int, len(ss))
	pending := make([]int, len(ss))
	for id := range refused {
		nacked[of[id]]++
	}
	for id := range unanswered {
		pending[of[id]]++
	}
	errs := make([]error, len(ss))
	for i, s := range ss {
		switch {
		case nacked[i] > 0:
			errs[i] = fmt.Errorf("ctrlplane: setup %d aborted: insufficient capacity on %d hop(s)", s.ID, nacked[i])
		case pending[i] == 0:
			s.State = StatePrepared
		case ctx.Err() != nil:
			errs[i] = fmt.Errorf("ctrlplane: setup %d aborted: deadline expired: %w", s.ID, ctx.Err())
		default:
			errs[i] = fmt.Errorf("ctrlplane: setup %d aborted: %d hop(s) unresponsive", s.ID, pending[i])
		}
	}
	return errs
}

// decide is the decision point of a round and its phase 2. Every session in
// commits and aborts has its current attempt decided, every session in
// releases gives its committed capacity back; each decision is recorded
// durably BEFORE any message is sent, so a broker crashing on the record
// resolves its in-doubt holds exactly as the coordinator decided, and from
// that moment the outcome stands regardless of which agents are reachable.
// Then every touched broker gets ONE MsgBatch carrying its slice of the
// round, in one broadcast; unacknowledged records go to the backlog — late
// delivery or WAL recovery converges. The capacity version moves once.
//
// The coordinator owns the shared metrics mirror: a reservation is recorded
// exactly once per hop at the commit point and released exactly once per
// hop here, so path queries observe residual capacity even while an owner
// is unreachable. The agent ledgers stay authoritative per link; a mirror
// shortfall is ignored rather than failing an already-decided commit.
//
// A release is taken only if the session is StateCommitted when its turn
// comes — a session named twice in one round is released once. The result
// is index-aligned with releases; hops that lost every broker endpoint have
// no agent ledger left to credit.
func (p *Plane) decide(ctx context.Context, commits, aborts, releases []*Session) []error {
	entries := make(map[int32][]BatchEntry) // broker -> its slice of the record
	record := func(s *Session, kind BatchEntryKind, verdict string) {
		p.flight.Record("ctrlplane", "decide", int64(p.d.Now()), "session %d.%d %s", verdict, int64(s.ID), int64(s.Epoch))
		for _, owner := range uniqueOwners(s.owners) {
			entries[owner] = append(entries[owner], BatchEntry{Kind: kind, ID: s.ID, Epoch: s.Epoch})
		}
	}
	for _, s := range commits {
		record(s, EntryCommit, "COMMIT")
		for h := 0; h+1 < len(s.Path); h++ {
			_ = p.metrics.Reserve(s.Path[h], s.Path[h+1], s.Bandwidth)
		}
		p.stats.Commits++
		s.State = StateCommitted
	}
	for _, s := range aborts {
		record(s, EntryAbort, "ABORT")
		p.stats.Aborts++
		s.State = StateAborted
	}
	errs := make([]error, len(releases))
	changed := len(commits) > 0
	for i, s := range releases {
		if s.State != StateCommitted {
			errs[i] = fmt.Errorf("ctrlplane: teardown of non-committed session")
			continue
		}
		for h := 0; h+1 < len(s.Path); h++ {
			u, v := s.Path[h], s.Path[h+1]
			if owner, ok := p.ownerOf(u, v); ok {
				entries[owner] = append(entries[owner], BatchEntry{
					Kind: EntryRelease, ID: s.ID, Epoch: s.Epoch,
					Hop: hopKey(u, v), BW: s.Bandwidth,
				})
			}
			p.metrics.Release(u, v, s.Bandwidth)
		}
		s.State = StateReleased
		changed = true
	}

	brokers := make([]int32, 0, len(entries))
	for b := range entries {
		brokers = append(brokers, b)
	}
	slices.Sort(brokers)
	msgs := make([]Message, 0, len(brokers))
	for _, b := range brokers {
		msgs = append(msgs, Message{
			From: Coordinator, To: b, Type: MsgBatch,
			MsgID: p.d.NextID(), Batch: entries[b], Trace: obs.TraceIDFrom(ctx),
		})
	}
	// The commit point: every decision is recorded before a record is sent,
	// and waits on the last of them.
	for _, s := range commits {
		p.setDecided(sessKey{s.ID, s.Epoch}, true)
	}
	for _, s := range aborts {
		p.setDecided(sessKey{s.ID, s.Epoch}, false)
	}
	if len(msgs) > 0 {
		_, pending := p.d.Broadcast(ctx, msgs)
		for _, m := range pending {
			// A record toward a broker that left the coalition since the
			// attempt opened is dropped: its departure already settled the
			// attempt, presuming abort.
			if p.agents[m.To] != nil {
				p.d.Backlog(m)
			}
		}
	}
	if changed {
		p.version++
	}
	return errs
}

// prepareOne runs phase 1 for a single opened attempt; a failed prepare is
// abort-decided on the spot, so nothing stays held.
func (p *Plane) prepareOne(ctx context.Context, s *Session) error {
	err := p.prepare(ctx, []*Session{s}, nil)[0]
	if err != nil {
		p.decide(ctx, nil, []*Session{s}, nil)
	}
	return err
}

// settle drives one opened attempt through prepare and its decision: commit
// when every hop is held, abort otherwise (the prepare's error is returned).
func (p *Plane) settle(ctx context.Context, s *Session) error {
	err := p.prepareOne(ctx, s)
	if err == nil {
		p.decide(ctx, []*Session{s}, nil, nil)
	}
	return err
}

// PrepareOnPath runs only phase 1 of the 2PC over an externally computed
// path: every hop's capacity is held at its owner but no decision is
// recorded, and the session comes back StatePrepared. It is the
// sub-transaction primitive of the federation's two-level commit — a region
// prepares its segment, and the home region's decision later drives
// CommitPrepared or AbortPrepared; when RetryConfig.LeaseTTL is set an
// abandoned prepare self-cleans by lease expiry. The path must be
// B-dominated under the plane's current membership; a hop without a broker
// owner fails cleanly, and a failed prepare leaves nothing held. Same
// external-serialization rule as Setup.
func (p *Plane) PrepareOnPath(ctx context.Context, nodes []int32, bw float64) (*Session, error) {
	if err := checkSetup(nodes, bw); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "ctrlplane.prepare_on_path")
	defer span.End()
	span.Annotatef("route", "%d->%d", nodes[0], nodes[len(nodes)-1])
	p.tick()
	s, err := p.begin(nodes, bw)
	if err == nil {
		err = p.prepareOne(ctx, s)
	}
	if err != nil {
		span.Annotate("outcome", "aborted")
		return nil, err
	}
	span.Annotate("outcome", "prepared")
	return s, nil
}

// CommitPrepared drives a prepared setup to its commit point. When an abort
// was already presumed for the attempt — a hop owner's lease sweep, its
// recovery or its departure from the coalition took a hold back (resolve),
// which also unpins it — the commit is refused: the abort is decided and
// sent to every hop owner, so no participant keeps a hold, the session is
// left StateAborted, and an error is returned. The caller must treat the
// attempt as failed (the federation layer answers a refused sub-commit with
// BATCH-NACK so the home region rolls the stitched session back).
func (p *Plane) CommitPrepared(ctx context.Context, s *Session) error {
	if s == nil || s.State != StatePrepared {
		return fmt.Errorf("ctrlplane: commit of non-prepared session")
	}
	p.tick()
	if _, ok := p.pinned[sessKey{s.ID, s.Epoch}]; !ok {
		p.decide(ctx, nil, []*Session{s}, nil)
		return fmt.Errorf("ctrlplane: session %d.%d presumed aborted before commit (lease expired, or a holder recovered or left)", s.ID, s.Epoch)
	}
	p.decide(ctx, []*Session{s}, nil, nil)
	return nil
}

// AbortPrepared durably abort-decides a prepared setup and releases every
// hold. Aborting an attempt the lease sweep already presumed-aborted is a
// harmless no-op at the agents (abort fencing).
func (p *Plane) AbortPrepared(ctx context.Context, s *Session) error {
	if s == nil || s.State != StatePrepared {
		return fmt.Errorf("ctrlplane: abort of non-prepared session")
	}
	p.tick()
	p.decide(ctx, nil, []*Session{s}, nil)
	return nil
}

// uniqueOwners returns the distinct hop owners in ascending order.
func uniqueOwners(owners []int32) []int32 {
	out := slices.Clone(owners)
	slices.Sort(out)
	return slices.Compact(out)
}

// Teardown releases a committed session's capacity at every owner under
// ctx (bounding delivery retries; the release itself is unconditional): one
// batch record per distinct owner, however many hops each owns.
func (p *Plane) Teardown(ctx context.Context, s *Session) error {
	if s == nil || s.State != StateCommitted {
		return fmt.Errorf("ctrlplane: teardown of non-committed session")
	}
	ctx, span := obs.StartSpan(ctx, "ctrlplane.teardown")
	defer span.End()
	span.Annotatef("session", "%d.%d", s.ID, s.Epoch)
	p.tick()
	p.decide(ctx, nil, nil, []*Session{s})
	p.stats.Teardowns++
	return nil
}

// SessionDamaged reports whether a committed session no longer matches the
// live topology and coalition: a hop link is failed, a hop lost its broker
// owner, ownership moved off the agent that holds the reservation, the
// owning agent crashed, or its circuit breaker is open. Damaged sessions
// must be Repathed (or torn down).
func (p *Plane) SessionDamaged(s *Session) bool {
	if s == nil || s.State != StateCommitted {
		return false
	}
	for i, owner := range s.owners {
		u, v := s.Path[i], s.Path[i+1]
		if p.metrics.Failed(u, v) {
			return true
		}
		cur, ok := p.ownerOf(u, v)
		if !ok || cur != owner || p.crashed[cur] || p.d.BreakerOpen(cur) {
			return true
		}
	}
	return false
}

// Repath moves a damaged committed session onto a fresh dominated path:
// break-before-make — the old reservations are released (backlogged toward
// unreachable owners) and s ends StateReleased, then the new path is
// reserved through the normal retrying 2PC as a new record: same ID and
// bandwidth, the next epoch, its own path and hop owners. That record is
// returned; the caller keeps it in place of s. The search is floored at the
// session's bandwidth like Setup's, and runs after the release so the
// session's own reservation does not count against it. When no dominated
// path survives (or capacity ran out) nothing is held and an error is
// returned.
func (p *Plane) Repath(ctx context.Context, s *Session, opts routing.Options) (*Session, error) {
	if s == nil || s.State != StateCommitted {
		return nil, fmt.Errorf("ctrlplane: repath of non-committed session")
	}
	ctx, span := obs.StartSpan(ctx, "ctrlplane.repath")
	defer span.End()
	span.Annotatef("session", "%d.%d", s.ID, s.Epoch)
	p.tick()
	p.decide(ctx, nil, nil, []*Session{s})
	src, dst := int(s.Path[0]), int(s.Path[len(s.Path)-1])
	path, err := p.engine.BestPath(src, dst, opts.Reserving(s.Bandwidth))
	if err != nil {
		p.stats.RepathAborts++
		return nil, fmt.Errorf("ctrlplane: session %d aborted: no dominated path survives: %w", s.ID, err)
	}
	next := &Session{ID: s.ID, Epoch: s.Epoch, Bandwidth: s.Bandwidth}
	if err = p.open(next, path.Nodes); err == nil {
		err = p.settle(ctx, next)
	}
	if err != nil {
		p.stats.RepathAborts++
		return nil, fmt.Errorf("ctrlplane: session %d aborted during repath: %w", s.ID, err)
	}
	p.stats.Repaths++
	return next, nil
}

// Reconcile drives the backlog until every surviving agent has
// acknowledged all outstanding decisions, or attempts run out. Call it
// after recovering crashed brokers and lifting partitions to bring the
// plane to quiescence (the state CheckInvariants expects).
func (p *Plane) Reconcile(ctx context.Context) error {
	return p.d.Reconcile(ctx)
}
