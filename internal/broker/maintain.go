package broker

import (
	"fmt"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// MaintainResult describes a broker-set maintenance pass.
type MaintainResult struct {
	// Brokers is the maintained set.
	Brokers []int32
	// Added and Removed list the changes relative to the input set.
	Added, Removed []int32
	// Connectivity is the saturated E2E connectivity of Brokers.
	Connectivity float64
	// FullReselect reports that an incremental repair breached its quality
	// floor and fell back to a full reselect (always false for
	// MaintainAvoiding itself).
	FullReselect bool
}

// MaintainAvoiding adapts an existing broker set to a (possibly changed)
// topology: brokers that no longer exist are dropped, new brokers are added
// greedily (by incremental connectivity gain) until the target saturated
// connectivity is met, and redundant brokers are pruned while the target
// still holds. This is the operational "maintain the brokerage coalition"
// step the paper's §7 motivates: topologies churn, and reconvening the full
// selection from scratch is unnecessary.
//
// Nodes with avoid[u] == true are dropped from the incoming set and never
// selected as new brokers. This is the primitive the churn healer uses —
// failed broker processes and departed ASes stay in the graph (their links
// may still be dominated by neighbouring brokers) but must not be
// (re)hired. A nil mask avoids nothing.
func MaintainAvoiding(g *graph.Graph, old []int32, target float64, avoid []bool) (*MaintainResult, error) {
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("broker: target connectivity %f outside (0,1]", target)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("broker: empty graph")
	}
	avoided := func(u int) bool { return u < len(avoid) && avoid[u] }

	res := &MaintainResult{}
	inc := coverage.NewIncremental(g)
	for _, b := range old {
		if int(b) < 0 || int(b) >= n || avoided(int(b)) {
			res.Removed = append(res.Removed, b) // node left the topology or is barred
			continue
		}
		if !inc.InB(int(b)) {
			inc.AddBroker(int(b))
			res.Brokers = append(res.Brokers, b)
		}
	}

	// Grow greedily until the target holds or no candidate helps.
	for inc.Connectivity() < target {
		best, bestGain := -1, int64(0)
		for u := 0; u < n; u++ {
			if inc.InB(u) || avoided(u) {
				continue
			}
			if gain := inc.Gain(u); gain > bestGain {
				best, bestGain = u, gain
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("broker: target %.4f unreachable (peaked at %.4f with %d brokers)",
				target, inc.Connectivity(), len(res.Brokers))
		}
		inc.AddBroker(best)
		res.Brokers = append(res.Brokers, int32(best))
		res.Added = append(res.Added, int32(best))
	}

	// Prune: drop brokers (oldest first) whose removal keeps the target.
	// Union-find cannot delete, so candidate removals re-evaluate in batch.
	pruned := true
	for pruned {
		pruned = false
		for i := 0; i < len(res.Brokers); i++ {
			trial := make([]int32, 0, len(res.Brokers)-1)
			trial = append(trial, res.Brokers[:i]...)
			trial = append(trial, res.Brokers[i+1:]...)
			if coverage.SaturatedConnectivity(g, trial) >= target {
				res.Removed = append(res.Removed, res.Brokers[i])
				res.Brokers = trial
				pruned = true
				break
			}
		}
	}
	res.Connectivity = coverage.SaturatedConnectivity(g, res.Brokers)
	return res, nil
}
