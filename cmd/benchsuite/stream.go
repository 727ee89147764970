package main

import (
	"fmt"
	"math/rand"

	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

// opKind is one request shape a broker client sends.
type opKind uint8

const (
	opPath        opKind = iota // GET /path
	opSetup                     // POST /sessions
	opTeardown                  // DELETE /sessions/{id} of the cycle's setup
	opChurn                     // POST /churn {"generate":4}
	opFedPath                   // GET /federation/path
	opFedSetup                  // POST /federation/sessions
	opFedTeardown               // DELETE /federation/sessions/{id}
	// opFedPathWarm repeats a cycle's path read. Only the traced replay
	// issues it: it is how a warm stitch is timed from outside Fabric.Setup.
	opFedPathWarm
	numOpKinds
)

var opNames = [numOpKinds]string{"path", "setup", "teardown", "churn", "fed_path", "fed_setup", "fed_teardown", "fed_path_warm"}

func (k opKind) String() string { return opNames[k] }

// op is one request of a client's stream. Teardowns carry no pair: they
// release whatever session the same client's preceding setup returned.
type op struct {
	kind     opKind
	src, dst int32
}

type pair struct{ src, dst int32 }

const (
	zipfExponent = 1.1
	// clientSeedStride separates the per-client generator seeds; the
	// set-up generator (hot-set candidates, resident sessions) is the
	// stream of the client after the last one.
	clientSeedStride = 7919
	numClients       = 2
	sessionGbps      = 0.01
	churnPerPost     = 4
	readsPerCycle    = 4
)

func clientSeed(seed int64, w int) int64 { return seed + clientSeedStride*int64(w) }

// candidates returns the first n distinct pairs of the set-up generator.
// The hot set is the first hotSetSize of them the daemon answers 200; the
// rest seed churn_heal's resident sessions.
func candidates(top *topology.Topology, seed int64, n int) ([]pair, error) {
	gen, err := workload.NewPairGen(top, zipfExponent, clientSeed(seed, numClients))
	if err != nil {
		return nil, err
	}
	seen := make(map[pair]bool, n)
	out := make([]pair, 0, n)
	// Zipf repeats popular pairs; the draw cap only guards a topology too
	// small to hold n distinct pairs.
	for draws := 0; len(out) < n && draws < 64*n+1024; draws++ {
		s, d := gen.Pair()
		p := pair{s, d}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("benchsuite: topology yields only %d distinct pairs, need %d", len(out), n)
	}
	return out, nil
}

// buildStreams returns each client's request stream for the workload: a
// pure function of (workload, seed, units, hot set). units is the number
// of primary units (queries, cycles or churn posts) per client.
// churn_heal's reader stream is unbounded, so it is returned as a draw
// function by hotReader instead and streams[1] is nil.
func buildStreams(w *workloadSpec, top *topology.Topology, seed int64, units int, hot []pair) ([][]op, error) {
	streams := make([][]op, numClients)
	for c := 0; c < numClients; c++ {
		rng := rand.New(rand.NewSource(clientSeed(seed, c)))
		pick := func(kind opKind) op {
			p := hot[rng.Intn(len(hot))]
			return op{kind: kind, src: p.src, dst: p.dst}
		}
		var s []op
		switch w.name {
		case "path_cold":
			gen, err := workload.NewPairGen(top, zipfExponent, clientSeed(seed, c))
			if err != nil {
				return nil, err
			}
			for i := 0; i < units; i++ {
				src, dst := gen.Pair()
				s = append(s, op{kind: opPath, src: src, dst: dst})
			}
		case "path_hot":
			for i := 0; i < units; i++ {
				s = append(s, pick(opPath))
			}
		case "session_mix":
			for i := 0; i < units; i++ {
				s = append(s, pick(opSetup))
				for r := 0; r < readsPerCycle; r++ {
					s = append(s, pick(opPath))
				}
				s = append(s, op{kind: opTeardown})
			}
		case "churn_heal":
			if c == 0 {
				for i := 0; i < units; i++ {
					s = append(s, op{kind: opChurn})
				}
			}
		case "fed_session":
			gen, err := workload.NewPairGen(top, zipfExponent, clientSeed(seed, c))
			if err != nil {
				return nil, err
			}
			for i := 0; i < units; i++ {
				src, dst := gen.Pair()
				s = append(s, op{opFedPath, src, dst}, op{opFedSetup, src, dst}, op{kind: opFedTeardown})
			}
		default:
			return nil, fmt.Errorf("benchsuite: no stream for workload %q", w.name)
		}
		streams[c] = s
	}
	return streams, nil
}

// hotReader is churn_heal's client B: uniform draws from the hot set for as
// long as the caller keeps asking.
func hotReader(seed int64, hot []pair) func() op {
	rng := rand.New(rand.NewSource(clientSeed(seed, 1)))
	return func() op {
		p := hot[rng.Intn(len(hot))]
		return op{kind: opPath, src: p.src, dst: p.dst}
	}
}

// sliceNext adapts a fixed stream to the runner's draw function.
func sliceNext(s []op) func() (op, bool) {
	i := 0
	return func() (op, bool) {
		if i >= len(s) {
			return op{}, false
		}
		i++
		return s[i-1], true
	}
}
