package econ

import (
	"fmt"
)

// FormationStep records one round of sequential coalition formation.
type FormationStep struct {
	// Joined is the player index added this round (-1 when formation
	// stopped).
	Joined int
	// Marginal is the joiner's marginal contribution v(S∪{j}) − v(S).
	Marginal float64
	// Standalone is the joiner's stand-alone value v({j}).
	Standalone float64
	// Value is the coalition value after the round.
	Value float64
}

// FormCoalition simulates the §7.2 growth process: starting from the empty
// coalition, each round the best remaining candidate (largest marginal
// contribution) joins if its marginal contribution is at least its
// stand-alone value — joining must not destroy value it could keep alone,
// which mirrors the paper's "no AS has an incentive to leave" condition.
// Formation stops at the first candidate that fails the test, returning
// the stable membership and the per-round history; this is the
// quantitative version of "that's the time to stop increasing the set
// size."
func FormCoalition(n int, v CoalitionValue) ([]int, []FormationStep, error) {
	if n < 1 || n > 64 {
		return nil, nil, fmt.Errorf("econ: formation needs 1 <= n <= 64 players, got %d", n)
	}
	var (
		mask    uint64
		members []int
		history []FormationStep
	)
	for len(members) < n {
		cur := v(mask)
		best, bestMarg := -1, 0.0
		for j := 0; j < n; j++ {
			bit := uint64(1) << j
			if mask&bit != 0 {
				continue
			}
			marg := v(mask|bit) - cur
			if best < 0 || marg > bestMarg {
				best, bestMarg = j, marg
			}
		}
		standalone := v(uint64(1) << best)
		if bestMarg+1e-12 < standalone {
			history = append(history, FormationStep{
				Joined: -1, Marginal: bestMarg, Standalone: standalone, Value: cur,
			})
			break
		}
		mask |= uint64(1) << best
		members = append(members, best)
		history = append(history, FormationStep{
			Joined: best, Marginal: bestMarg, Standalone: standalone, Value: v(mask),
		})
	}
	return members, history, nil
}
