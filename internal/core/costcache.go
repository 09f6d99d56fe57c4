package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
)

// costKey identifies one per-layer latency evaluation. It contains every
// input the roofline model reads: the device class (which fixes
// ComputeMult and LaunchOverhead), the post-derate effective throughput
// and bandwidth, the tensor-parallel degree and link bandwidth, the
// phase, and the shape (micro-batch, sequence/context length, weight and
// KV bitwidths). Two devices with equal keys produce bitwise-identical
// latencies, so a cache hit can never perturb a plan.
type costKey struct {
	model  string
	class  gpu.DeviceClass
	flops  float64 // effective FP16FLOPS after derating
	bw     float64 // effective memory bandwidth after derating
	tp     int
	linkBW float64 // intra-node TP link bandwidth (0 at TP degree 1)
	phase  uint8   // 0 = prefill, 1 = decode
	v      int     // micro-batch size (η or ξ)
	seq    int     // chunk length (prefill) or cached context (decode)
	bit    int
	bitKV  int // 0 for prefill
}

const (
	phasePrefill uint8 = 0
	phaseDecode  uint8 = 1
)

// CostCache memoizes per-layer latency evaluations across searches. It
// is safe for concurrent use and intended to be shared: between the
// candidate configurations of one solve (orderings of the same mesh
// reuse every device's tables), between warm re-plans of a churning
// fleet, and between the topology variants of System.Fork. Values are
// bitwise-identical to an uncached computation — a device's latencies
// are pure functions of the key — so sharing a cache never changes a
// plan.
type CostCache struct {
	mu sync.RWMutex
	m  map[costKey]float64

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCostCache returns an empty cost cache.
func NewCostCache() *CostCache {
	return &CostCache{m: make(map[costKey]float64)}
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

// lookup memoizes compute() under the key.
func (c *CostCache) lookup(k costKey, compute func() float64) float64 {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	v = compute()
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
	return v
}

// deviceKey fills the device-identity part of a cost key.
func deviceKey(d *cluster.Device, m *model.Spec) costKey {
	k := costKey{
		model: m.Name,
		class: d.Spec.Class,
		flops: d.Spec.FP16FLOPS,
		bw:    d.Spec.Bandwidth,
		tp:    d.TPDegree,
	}
	if d.Group != nil && d.TPDegree > 1 {
		k.linkBW = d.Group.LinkBandwidth
	}
	return k
}

// cachedPrefill is Device.PrefillLayerLatency memoized through the
// cache (nil-safe).
func cachedPrefill(c *CostCache, d cluster.Device, m *model.Spec, v, seq, bit int) float64 {
	if c == nil {
		return d.PrefillLayerLatency(m, v, seq, bit)
	}
	k := deviceKey(&d, m)
	k.phase, k.v, k.seq, k.bit = phasePrefill, v, seq, bit
	return c.lookup(k, func() float64 { return d.PrefillLayerLatency(m, v, seq, bit) })
}

// cachedDecode is Device.DecodeLayerLatency memoized through the cache
// (nil-safe).
func cachedDecode(c *CostCache, d cluster.Device, m *model.Spec, v, ctx, bit, bitKV int) float64 {
	if c == nil {
		return d.DecodeLayerLatency(m, v, ctx, bit, bitKV)
	}
	k := deviceKey(&d, m)
	k.phase, k.v, k.seq, k.bit, k.bitKV = phaseDecode, v, ctx, bit, bitKV
	return c.lookup(k, func() float64 { return d.DecodeLayerLatency(m, v, ctx, bit, bitKV) })
}
