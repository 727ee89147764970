package sim

import (
	"fmt"
	"math/rand"

	"brokerset/internal/coverage"
	"brokerset/internal/topology"
)

// FailureResult summarizes a broker-failure experiment.
type FailureResult struct {
	// FailedBrokers is how many brokers were removed.
	FailedBrokers int
	// ConnectivityBefore and ConnectivityAfter are saturated E2E
	// connectivity with the full and the surviving broker set.
	ConnectivityBefore, ConnectivityAfter float64
	// ReroutedFraction is the share of sampled previously-routable pairs
	// still routable after the failures.
	ReroutedFraction float64
}

// FailBrokers removes a fraction of the brokers (picked uniformly at
// random) and measures the connectivity damage and re-routability —
// the resilience question a real coalition deployment has to answer. A
// failed broker's node and links stay up; only its broker process is gone.
func FailBrokers(top *topology.Topology, brokers []int32, frac float64, samplePairs int, rng *rand.Rand) (*FailureResult, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("sim: failure fraction %f outside [0,1]", frac)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	nFail := int(frac * float64(len(brokers)))
	perm := rng.Perm(len(brokers))
	failed := make([]bool, len(brokers))
	for _, i := range perm[:nFail] {
		failed[i] = true
	}
	var surviving []int32
	for i, b := range brokers {
		if !failed[i] {
			surviving = append(surviving, b)
		}
	}
	res := &FailureResult{
		FailedBrokers:      nFail,
		ConnectivityBefore: coverage.SaturatedConnectivity(top.Graph, brokers),
		ConnectivityAfter:  coverage.SaturatedConnectivity(top.Graph, surviving),
	}

	// Sample pairs routable before; check their routability after.
	// Dominated-component labels decide routability in O(1) per pair.
	compBefore, _ := coverage.NewDominated(top.Graph, brokers).Components()
	compAfter, _ := coverage.NewDominated(top.Graph, surviving).Components()
	n := top.NumNodes()
	routableBefore, routableAfter := 0, 0
	for i := 0; i < samplePairs; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if compBefore[u] < 0 || compBefore[u] != compBefore[v] {
			continue
		}
		routableBefore++
		if compAfter[u] >= 0 && compAfter[u] == compAfter[v] {
			routableAfter++
		}
	}
	if routableBefore > 0 {
		res.ReroutedFraction = float64(routableAfter) / float64(routableBefore)
	}
	return res, nil
}
