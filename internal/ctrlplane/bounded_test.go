package ctrlplane

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime/metrics"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/graph"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// refLog is the checkpoint oracle's state for one broker: what replay would
// return had the log never dropped a record — every record the broker's log
// was ever handed, folded from its first checkpoint on, no later checkpoint
// read.
type refLog struct {
	rows  map[int32]float64
	holds map[sessKey][]hold
	done  map[sessKey]fence
	seen  map[uint64]struct{}
}

// rowMap is a replay's rows: link -> residual.
type rowMap map[int32]float64

func (m rowMap) put(l int32, avail float64) { m[l] = avail }
func (m rowMap) drop(l int32)               { delete(m, l) }

// credit skips a row the replayed agent does not own: its row moved on.
func (m rowMap) credit(l int32, bw float64) {
	if _, owned := m[l]; owned {
		m[l] += bw
	}
}

// replayed folds log into a fresh state and row map.
func replayed(g *graph.Graph, log *wal) (rowMap, state) {
	rows := rowMap{}
	var st state
	log.replay(g, &st, rows)
	return rows, st
}

// startReference starts the reference of a log the oracle did not see
// written: from what it replays to.
func startReference(g *graph.Graph, log *wal) *refLog {
	rows, st := replayed(g, log)
	return &refLog{rows: rows, holds: st.holds, done: st.done, seen: st.seen}
}

// replayReference folds one more record of a log's full history into r, by
// replay's rules. A checkpoint after the first restates the state and is not
// read.
func replayReference(g *graph.Graph, r *refLog, rec walRecord) {
	credit := func(l int32, bw float64) {
		if _, owned := r.rows[l]; owned {
			r.rows[l] += bw
		}
	}
	if rec.MsgID != 0 {
		r.seen[rec.MsgID] = struct{}{}
	}
	switch rec.Op {
	case walMigrate:
		for _, l := range rec.Ledger.Lost {
			delete(r.rows, l)
		}
		for _, row := range rec.Ledger.Gained {
			r.rows[row.Link] = row.Avail
		}
	case walHold:
		credit(rec.Link, -rec.BW)
		r.holds[rec.Session] = append(r.holds[rec.Session], hold{link: rec.Link, bw: rec.BW, expires: rec.Expires, id: rec.MsgID})
	case walCredit:
		credit(rec.Link, rec.BW)
	case walBatch:
		applyBatchEntries(g, r.holds, r.done, rec.Batch, rec.MsgID, credit)
	}
}

// matches reports how log's replay differs from the reference, at an agent
// watermark of w: rows and holds bit for bit; every fencing and dedup entry
// the replay has, the reference has too, and every one at or above w — all
// the fencing still needs — the replay has.
func (r *refLog) matches(g *graph.Graph, log *wal, w uint64) error {
	rows, st := replayed(g, log)
	holds, done, seen := st.holds, st.done, st.seen
	if len(rows) != len(r.rows) {
		return fmt.Errorf("%d rows, reference %d", len(rows), len(r.rows))
	}
	for l, avail := range r.rows {
		if got, ok := rows[l]; !ok || math.Float64bits(got) != math.Float64bits(avail) {
			return fmt.Errorf("row %d replays as %v (present %v), reference %v", l, got, ok, avail)
		}
	}
	if !reflect.DeepEqual(holds, r.holds) {
		return fmt.Errorf("holds %v, reference %v", holds, r.holds)
	}
	for k, f := range done {
		if ref, ok := r.done[k]; !ok || ref != f {
			return fmt.Errorf("fences %v as %+v, reference %+v (present %v)", k, f, ref, ok)
		}
	}
	for k, f := range r.done {
		if _, ok := done[k]; !ok && f.at >= w {
			return fmt.Errorf("lost the fence of %v (%+v) at watermark %d", k, f, w)
		}
	}
	for id := range seen {
		if _, ok := r.seen[id]; !ok {
			return fmt.Errorf("remembers msg %d, which the reference never logged", id)
		}
	}
	for id := range r.seen {
		if _, ok := seen[id]; !ok && id >= w {
			return fmt.Errorf("forgot msg %d at watermark %d", id, w)
		}
	}
	return nil
}

// forget drops what no later replay can hold any more: the fencing and dedup
// entries below the watermark of the checkpoint that superseded them.
func (r *refLog) forget(w uint64) {
	for k, f := range r.done {
		if f.at < w {
			delete(r.done, k)
		}
	}
	for id := range r.seen {
		if id < w {
			delete(r.seen, id)
		}
	}
}

// liveRef reads member b's state off the plane as a refLog: its rows from
// the columns, and its agent's holds, fencing and dedup memory, with the
// agent's watermark. A crashed member has lost the latter, so its log's own
// are taken: of a crashed member only the rows are compared.
func liveRef(p *Plane, b int32) (*refLog, uint64) {
	rows := make(map[int32]float64)
	for _, row := range p.rowsOf(b) {
		rows[row.Link] = row.Avail
	}
	st := p.agents[b].state
	if p.crashed[b] {
		_, st = replayed(p.top.Graph, p.wals[b])
	}
	return &refLog{rows: rows, holds: st.holds, done: st.done, seen: st.seen}, st.w
}

// checkFold requires every member's state to be the fold of its log: what
// liveRef reads off the plane matches the log's replay.
func checkFold(p *Plane) error {
	for _, b := range p.Brokers() {
		r, w := liveRef(p, b)
		if err := r.matches(p.top.Graph, p.wals[b], w); err != nil {
			return fmt.Errorf("broker %d is not the fold of its log: %v", b, err)
		}
	}
	return nil
}

// watchFold runs checkFold after every message p dispatches, failing t at
// the first one that leaves a member apart from its log, and returns the
// check for the caller to run after a call that dispatches nothing
// (SetBrokers, Recover, ExpireLeases).
func watchFold(t testing.TB, p *Plane) func(step string) {
	dispatch := p.d.Dispatch
	p.d.Dispatch = func(m Message) {
		dispatch(m)
		if err := checkFold(p); err != nil {
			t.Fatalf("after %s %d to broker %d: %v", m.Type, m.MsgID, m.To, err)
		}
	}
	return func(step string) {
		t.Helper()
		if err := checkFold(p); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
}

// boundedCase is the plane TestControlPlaneStateIsBounded cycles sessions
// through: the line topology at Tier-1, the Table-2 tier under
// SELECTION_SCALE.
func boundedCase(t *testing.T) (p *Plane, pairs [][2]int, cycles int) {
	seed := chaosSeed(t)
	rates := FaultRates{Drop: 0.03, Duplicate: 0.03}
	faults := FaultConfig{Seed: seed, ToBroker: rates, ToCoord: rates}
	if os.Getenv("SELECTION_SCALE") == "" {
		p, _ = faultyPlane(t, faults)
		return p, [][2]int{{0, 4}}, 50000
	}
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 1064)
	if err != nil {
		t.Fatal(err)
	}
	p = New(top, routing.DefaultMetrics(top, nil), brokers)
	p.UseTransport(NewFaultTransport(faults))
	rng := rand.New(rand.NewSource(seed))
	for len(pairs) < 256 {
		src, dst := int(brokers[rng.Intn(len(brokers))]), rng.Intn(top.NumNodes())
		if s, err := p.Setup(context.Background(), src, dst, 0.01, routing.Options{}); err == nil {
			_ = p.Teardown(context.Background(), s)
			pairs = append(pairs, [2]int{src, dst})
		}
	}
	return p, pairs, 1000000
}

// TestControlPlaneStateIsBounded cycles sessions through a plane whose bus
// drops and duplicates 3 % of messages both ways, crashing and recovering a
// member every 1,000 cycles, and requires every per-session structure to be
// bounded by what is in flight rather than by what has happened: after a
// tenth of the cycles and after all of them, every member's log, fencing and
// dedup memory sit within a bound its checkpoint budget sets, the
// coordinator's decision record and retirement queue within one round's
// worth, nothing pinned and nothing backlogged. Every checkpoint is checked
// against replayReference over the log's full history, twice: the previous
// checkpoint with its tail, which the new one supersedes, and the new one
// alone. Under SELECTION_SCALE the same test runs at the Table-2 tier for 1M
// cycles and logs heap-live and GC pauses.
func TestControlPlaneStateIsBounded(t *testing.T) {
	p, pairs, cycles := boundedCase(t)
	g := p.top.Graph
	ctx := context.Background()

	refs := make(map[int32]*refLog)
	checks := 0
	p.walAppended = func(b int32, rec walRecord) {
		log := p.wals[b]
		if rec.Op != walCheckpoint {
			replayReference(g, refs[b], rec)
			return
		}
		if len(log.recs) == 1 { // a new log: the member's first checkpoint
			refs[b] = startReference(g, log)
			return
		}
		r := refs[b]
		for _, w := range []*wal{{recs: log.recs[:len(log.recs)-1]}, log} {
			if err := r.matches(g, w, rec.Image.W); err != nil {
				t.Fatalf("broker %d checkpoint %d: a replay of %d record(s): %v", b, checks, len(w.recs), err)
			}
		}
		// What the checkpoint is taken from: at most the last image's window
		// and a tail's worth — unless the watermark stopped rising.
		if a := p.agents[b]; len(a.seen) > 2*(log.budget+1) || len(a.done) > 2*(log.budget+1) {
			t.Fatalf("broker %d checkpoint %d: %d ids and %d fences against a budget of %d records",
				b, checks, len(a.seen), len(a.done), log.budget)
		}
		r.forget(rec.Image.W)
		checks++
	}
	for _, b := range p.Brokers() { // the history before the seam, as it replays
		refs[b] = startReference(g, p.wals[b])
	}

	cycle := func(i int) {
		pair := pairs[i%len(pairs)]
		s, err := p.Setup(ctx, pair[0], pair[1], 0.01, routing.Options{})
		if err == nil {
			_ = p.Teardown(ctx, s)
		}
	}
	measure := func(n int) {
		if err := p.Reconcile(ctx); err != nil {
			t.Fatalf("after %d cycles: %v", n, err)
		}
		p.Tick() // retire what the reconcile acknowledged
		var records, seen, done int
		for _, b := range p.Brokers() {
			log, a := p.wals[b], p.agents[b]
			// The bound a member's budget sets: the tail never passes it, and
			// every record adds at most one dedup id and fences at most a
			// round's attempts beyond what the last checkpoint kept.
			if bound := log.budget + 1; len(log.recs) > bound || len(a.seen) > 2*bound || len(a.done) > 2*bound {
				t.Errorf("after %d cycles broker %d keeps %d records, %d ids, %d fences: bound %d, %d, %d",
					n, b, len(log.recs), len(a.seen), len(a.done), bound, 2*bound, 2*bound)
			}
			records, seen, done = max(records, len(log.recs)), max(seen, len(a.seen)), max(done, len(a.done))
		}
		if len(p.decided) > 16 || len(p.retiring) > 16 || len(p.pinned) != 0 || p.d.Backlogged() != 0 {
			t.Errorf("after %d cycles the coordinator keeps %d decisions, %d queued to retire, %d pinned, %d backlogged",
				n, len(p.decided), len(p.retiring), len(p.pinned), p.d.Backlogged())
		}
		live, pause := gcStats()
		t.Logf("after %d cycles: at most %d records, %d ids, %d fences a member; %d decisions; heap live %.1f MB; GC pauses %s; %d checkpoints checked",
			n, records, seen, done, len(p.decided), float64(live)/(1<<20), pause, checks)
	}

	// The fold check reads every member's log after every message: at the
	// Tier-1 scale only.
	folded := func(string) {}
	if os.Getenv("SELECTION_SCALE") == "" {
		folded = watchFold(t, p)
	}
	members := p.Brokers()
	for i := 0; i < cycles; i++ {
		if i%1000 == 999 {
			b := members[(i/1000)%len(members)]
			p.Crash(b)
			cycle(i)
			p.Recover(b)
			folded("Recover")
		} else {
			cycle(i)
		}
		if i+1 == cycles/10 {
			measure(i + 1)
		}
	}
	measure(cycles)
	if checks == 0 {
		t.Fatal("no checkpoint was taken")
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// gcStats reads the live heap and the GC pause distribution from
// runtime/metrics.
func gcStats() (live uint64, pauses string) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	h := s[1].Value.Float64Histogram()
	var n, seen uint64
	for _, c := range h.Counts {
		n += c
	}
	p50, p99, top := 0.0, 0.0, 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		seen += c
		hi := h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = h.Buckets[i]
		}
		if p50 == 0 && seen*2 >= n {
			p50 = hi
		}
		if p99 == 0 && seen*100 >= 99*n {
			p99 = hi
		}
		top = hi
	}
	return s[0].Value.Uint64(), fmt.Sprintf("%d, p50 %.0f µs, p99 %.0f µs, max %.0f µs", n, p50*1e6, p99*1e6, top*1e6)
}
