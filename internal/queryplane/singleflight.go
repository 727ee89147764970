package queryplane

import (
	"sync"

	"brokerset/internal/routing"
)

// flightKey scopes deduplication to one (query, generation) pair: callers
// arriving after an invalidation must not join a flight computed against
// the previous link state.
type flightKey struct {
	key routing.QueryKey
	gen uint64
}

// call is one in-flight computation shared by concurrent identical queries.
type call struct {
	wg   sync.WaitGroup
	path *routing.Path
	err  error
}

// flightGroup is a minimal singleflight (stdlib-only: no x/sync dependency).
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*call
	// joined, when set, is called by each follower once it is committed to
	// a flight and before it blocks on the leader. Tests use it to hold a
	// leader until a known number of followers have joined.
	joined func()
}

// do runs fn once per concurrent flightKey: the first caller (leader)
// executes fn, later callers block until the leader finishes and share its
// result. shared reports whether this caller was a follower.
func (g *flightGroup) do(k flightKey, fn func() (*routing.Path, error)) (path *routing.Path, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[flightKey]*call)
	}
	if c, ok := g.m[k]; ok {
		g.mu.Unlock()
		if g.joined != nil {
			g.joined()
		}
		c.wg.Wait()
		return c.path, true, c.err
	}
	c := &call{}
	c.wg.Add(1)
	g.m[k] = c
	g.mu.Unlock()

	c.path, c.err = fn()
	g.mu.Lock()
	delete(g.m, k)
	g.mu.Unlock()
	c.wg.Done()
	return c.path, false, c.err
}
