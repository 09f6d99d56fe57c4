package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/gpu"
)

// CostCache memoizes per-layer latency evaluations across searches. It
// is safe for concurrent use and intended to be shared: between the
// candidate configurations of one solve (orderings of the same mesh
// reuse every device's tables), between re-plans of a churning fleet, and between the topology variants of System.Fork. It is keyed
// by the gpu.Pass it prices, which holds every value the roofline reads
// (derating and TP efficiency included, through the effective rates),
// so a hit is bitwise-identical to an uncached computation and sharing
// a cache never changes a plan.
type CostCache struct {
	mu sync.RWMutex
	m  map[gpu.Pass]float64

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCostCache returns an empty cost cache.
func NewCostCache() *CostCache {
	return &CostCache{m: make(map[gpu.Pass]float64)}
}

// Hits returns the cumulative number of cache hits.
func (c *CostCache) Hits() int64 { return c.hits.Load() }

// Misses returns the cumulative number of cache misses.
func (c *CostCache) Misses() int64 { return c.misses.Load() }

// Len returns the number of memoized evaluations.
func (c *CostCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// latency returns p.Latency(), memoized through the cache (nil-safe).
func (c *CostCache) latency(p gpu.Pass) float64 {
	if c == nil {
		return p.Latency()
	}
	c.mu.RLock()
	v, ok := c.m[p]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	v = p.Latency()
	c.mu.Lock()
	c.m[p] = v
	c.mu.Unlock()
	return v
}
