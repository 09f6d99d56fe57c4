package core

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/workload"
)

// PlanKey renders the cache key of one planning problem: the model, the
// cluster's fingerprint, the batch shape, and every option that can
// change the plan, after defaults and with floats written exactly.
// Costs, Parallelism and Progress are left out: they change how fast a
// plan is found, never which plan. A MeshFilter is a function and cannot
// be keyed, so a problem that sets one is not cacheable and PlanKey
// returns "", which PlanCache never stores.
func PlanKey(model string, clu *cluster.Cluster, batch workload.Batch, opts Options) string {
	return string(appendPlanKey(nil, model, clu, batch, opts))
}

// appendPlanKey appends PlanKey(model, clu, batch, opts) to b, and
// nothing for an uncacheable problem. The bytes are those of the fmt
// format
// "%s|%s|B%d.s%d.k%d.n%d.r%d|theta=%v|%s|bits=%v|kv=%d|qc=%v|ord=%d|mb=%v|gs=%d|nodes=%d|tl=%d|ilp=%d|obj=%s"
// over the model, clu.Fingerprint(), the batch's size, chunk length,
// chunk count, generation tokens and KV reservation, then θ, method,
// bits, KV bits, quality cap, ordering limit, micro-batches, group size,
// node limit, time limit in nanoseconds, ILP candidates and objective,
// after defaults; keys saved by that format keep hitting.
func appendPlanKey(b []byte, model string, clu *cluster.Cluster, batch workload.Batch, opts Options) []byte {
	if opts.MeshFilter != nil {
		return b
	}
	o := opts.withDefaults()
	b = clu.AppendFingerprint(append(append(b, model...), '|'))
	b = strconv.AppendInt(append(b, "|B"...), int64(batch.Size), 10)
	b = strconv.AppendInt(append(b, ".s"...), int64(batch.ChunkLen), 10)
	b = strconv.AppendInt(append(b, ".k"...), int64(batch.Chunks), 10)
	b = strconv.AppendInt(append(b, ".n"...), int64(batch.GenTokens), 10)
	b = strconv.AppendInt(append(b, ".r"...), int64(batch.Reserve()), 10)
	b = strconv.AppendFloat(append(b, "|theta="...), o.Theta, 'g', -1, 64)
	b = append(append(b, '|'), o.Method...)
	b = appendInts(append(b, "|bits="...), o.Bits)
	b = strconv.AppendInt(append(b, "|kv="...), int64(o.BitKV), 10)
	b = strconv.AppendFloat(append(b, "|qc="...), o.QualityCap, 'g', -1, 64)
	b = strconv.AppendInt(append(b, "|ord="...), int64(o.OrderingLimit), 10)
	b = appendInts(append(b, "|mb="...), o.MicroBatches)
	b = strconv.AppendInt(append(b, "|gs="...), int64(o.GroupSize), 10)
	b = strconv.AppendInt(append(b, "|nodes="...), int64(o.MaxNodes), 10)
	b = strconv.AppendInt(append(b, "|tl="...), int64(o.TimeLimit), 10)
	b = strconv.AppendInt(append(b, "|ilp="...), int64(o.ILPCandidates), 10)
	return append(append(b, "|obj="...), o.Objective...)
}

// appendInts appends xs as fmt's %v writes an []int: "[3 4 8]".
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// PlanCache is an LRU cache of solved plans keyed by PlanKey, and the one
// place a plan is obtained: Plan looks the problem up, solves it on a
// miss and stores the result. Values are the planner wire format of
// internal/plan, kept serialized so the cache persists to disk
// byte-for-byte. An entry may also hold, in memory only, the Report of
// the solve that produced it and its plan decoded, bound to the cluster
// and model of its last lookup, validated and simulated: a lookup with
// that same cluster and model copies the decoded plan and returns its
// simulation, and any other lookup decodes, rebinds and simulates the
// serialized one.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	index    map[string]*list.Element
	hits     uint64
	misses   uint64
	// costs memoizes per-device stage costs for every solve that sets no
	// Options.Costs of its own.
	costs *CostCache
}

// cacheEntry is one cache slot; only Key and Plan persist. Entries are
// replaced, never mutated, so a lookup may read one outside the lock,
// and replacing an entry (put, Load, eviction) also discards its
// decoded plan and simulation.
type cacheEntry struct {
	Key  string          `json:"key"`
	Plan json.RawMessage `json:"plan"`
	rep  *Report
	// bound is Plan decoded, bound to clu and validated for spec's
	// layers, and sim and simErr are what pipeline.Simulate returns for
	// it on the key's batch; all nil until a lookup binds the entry.
	// Simulate reads only the batch fields PlanKey covers, so every
	// lookup of this key with clu and spec would simulate the same.
	// Nothing mutates them: lookup returns copies of bound, and sim is
	// shared read-only.
	bound  *plan.Plan
	clu    *cluster.Cluster
	spec   *model.Spec
	layers int
	sim    *pipeline.Result
	simErr error
}

// cacheFile is the on-disk snapshot: entries from most to least recently
// used, so a load/save round trip preserves eviction order.
type cacheFile struct {
	Entries []cacheEntry `json:"entries"`
}

// NewPlanCache builds a cache holding at most capacity plans (≤ 0 means
// the default of 128).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &PlanCache{capacity: capacity, ll: list.New(), index: map[string]*list.Element{}, costs: NewCostCache()}
}

// Plan returns the plan for batch of spec on clu under opts. When the
// cache holds the problem's PlanKey it returns that plan, bound to clu,
// and hit is true. Otherwise it profiles the quality indicator, runs
// Assigner.Plan, and stores the plan unless the solve was cancelled. A
// solve is a pure function of the key's inputs, so a hit returns the
// plan a fresh solve would. The plan is the caller's own copy; the
// report is the solve's, and on a hit the stored one: without
// ConfigStats, and nil for an entry restored by Load. A solve without Options.Costs uses the
// cache's own cost cache.
func (c *PlanCache) Plan(ctx context.Context, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch,
	opts Options) (p *plan.Plan, rep *Report, hit bool, err error) {
	p, _, rep, hit, err = c.plan(ctx, spec, clu, batch, opts, false)
	return p, rep, hit, err
}

// PlanAndSimulate is Plan followed by pipeline.Simulate of the plan on
// the same inputs, and returns the simulation too. A hit returns the
// simulation made when its entry was bound, which is bit-identical to a
// fresh one, an ErrOOM verdict included; it is shared with every other
// hit, so the caller must not modify it. A simulation error is returned
// as err.
func (c *PlanCache) PlanAndSimulate(ctx context.Context, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch,
	opts Options) (p *plan.Plan, sim *pipeline.Result, rep *Report, hit bool, err error) {
	return c.plan(ctx, spec, clu, batch, opts, true)
}

// plan is Plan, and PlanAndSimulate when simulate is set.
func (c *PlanCache) plan(ctx context.Context, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch,
	opts Options, simulate bool) (p *plan.Plan, sim *pipeline.Result, rep *Report, hit bool, err error) {
	// The key is built on the stack and looked up without a string of
	// its own; an uncacheable problem has the empty key, never stored.
	var buf [512]byte
	key := appendPlanKey(buf[:0], spec.Name, clu, batch, opts)
	if e := c.lookup(key, spec, clu, batch); e != nil {
		if simulate && e.simErr != nil {
			return nil, nil, nil, false, e.simErr
		}
		return copyPlan(e.bound), e.sim, e.rep, true, nil
	}
	if opts.Costs == nil {
		opts.Costs = c.costs
	}
	a, err := New(spec, clu, ProfileIndicator(spec, opts.withDefaults().Bits, quant.Deterministic), opts)
	if err != nil {
		return nil, nil, nil, false, err
	}
	if p, rep, err = a.Plan(ctx, batch); err != nil {
		return nil, nil, nil, false, err
	}
	if !rep.Cancelled { // a cut-short search's incumbent is not the answer
		raw, err := json.Marshal(p)
		if err != nil {
			return nil, nil, nil, false, err
		}
		stored := *rep
		stored.ConfigStats = nil
		c.put(string(key), raw, &stored)
	}
	if simulate {
		if sim, err = pipeline.Simulate(p, spec, clu, batch); err != nil {
			return nil, nil, nil, false, err
		}
	}
	return p, sim, rep, false, nil
}

// get returns the entry for key, marking it most recently used and
// counting the hit or miss, or nil.
func (c *PlanCache) get(key []byte) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[string(key)]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// lookup returns the entry cached under key, bound to clu, validated for
// spec and simulated on batch, or nil. Its report is that of the solve
// that made it (nil for an entry restored by Load). An entry bound to
// another cluster or model is decoded, rebound and simulated anew, and
// replaces the stored one. An entry that no longer decodes, binds or
// validates — a pool redefined under an unchanged name — is dropped and
// reported as absent.
func (c *PlanCache) lookup(key []byte, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch) *cacheEntry {
	e := c.get(key)
	if e == nil {
		return nil
	}
	if e.bound != nil && e.clu == clu && e.spec == spec && e.layers == spec.Layers {
		return e
	}
	p := new(plan.Plan)
	if json.Unmarshal(e.Plan, p) != nil || p.Bind(clu) != nil || p.Validate(spec.Layers) != nil {
		c.replace(e.Key, e, nil)
		return nil
	}
	next := &cacheEntry{Key: e.Key, Plan: e.Plan, rep: e.rep, bound: p, clu: clu, spec: spec, layers: spec.Layers}
	next.sim, next.simErr = pipeline.Simulate(p, spec, clu, batch)
	c.replace(e.Key, e, next)
	return next
}

// replace swaps next in for key's entry, or drops the entry when next is
// nil, but only while the entry is still old: a put or Load that
// landed since old was read wins.
func (c *PlanCache) replace(key string, old, next *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok || el.Value.(*cacheEntry) != old {
		return
	}
	if next == nil {
		c.ll.Remove(el)
		delete(c.index, key)
		return
	}
	el.Value = next
}

// copyPlan returns a copy of p with its own Stages and Bits, so the
// caller may change them; the devices' performance models are shared.
func copyPlan(p *plan.Plan) *plan.Plan {
	out := *p
	out.Stages = make([]plan.Stage, len(p.Stages))
	bits := make([]int, 0, p.Layers())
	for i, st := range p.Stages {
		lo := len(bits)
		bits = append(bits, st.Bits...)
		st.Bits = bits[lo:len(bits):len(bits)]
		out.Stages[i] = st
	}
	return &out
}

// put stores a serialized plan and the report of its solve (may be nil),
// evicting the least recently used entry beyond capacity. The empty key
// (an uncacheable problem, see PlanKey) is ignored.
func (c *PlanCache) put(key string, raw json.RawMessage, rep *Report) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cacheEntry{Key: key, Plan: raw, rep: rep}
	if el, ok := c.index[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.index[key] = c.ll.PushFront(e)
	c.evict()
}

// evict drops least recently used entries beyond capacity (caller holds
// c.mu).
func (c *PlanCache) evict() {
	for c.ll.Len() > c.capacity {
		lru := c.ll.Back()
		c.ll.Remove(lru)
		delete(c.index, lru.Value.(*cacheEntry).Key)
	}
}

// Capacity returns the most plans the cache holds.
func (c *PlanCache) Capacity() int { return c.capacity }

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lifetime hit and miss counts of this process.
func (c *PlanCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Save writes the cache snapshot atomically (temp file + rename).
func (c *PlanCache) Save(path string) error {
	c.mu.Lock()
	var f cacheFile
	for el := c.ll.Front(); el != nil; el = el.Next() {
		f.Entries = append(f.Entries, *el.Value.(*cacheEntry))
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// A unique temp file keeps concurrent Save callers from renaming the
	// same intermediate out from under each other.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp.Chmod(0o644)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Keys lists the cached plan keys from most to least recently used.
func (c *PlanCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).Key)
	}
	return out
}

// Load restores a snapshot written by Save. A missing file is not an
// error (first start); a corrupt file is. Entries keyed in an older
// format load but never match a current PlanKey, so they age out.
func (c *PlanCache) Load(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("core: corrupt plan cache %s: %w", path, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Entries are saved MRU-first; inserting in reverse restores order.
	for i := len(f.Entries) - 1; i >= 0; i-- {
		e := f.Entries[i]
		if _, ok := c.index[e.Key]; ok {
			continue
		}
		c.index[e.Key] = c.ll.PushFront(&e)
	}
	c.evict()
	return nil
}
