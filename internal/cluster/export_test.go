package cluster

import (
	"sort"

	"autoloop/internal/control"
)

// Placements reports the placement table sorted by group.
func (c *Coordinator) Placements() []control.PlacementInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]control.PlacementInfo, 0, len(c.specs))
	for _, p := range c.specs {
		out = append(out, placementInfo(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// Degraded reports whether the agent is in degraded standalone mode.
func (a *Agent) Degraded() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.degraded
}
