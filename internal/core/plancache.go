package core

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/workload"
)

// PlanKey renders the cache key of one planning problem: the model, the
// cluster fingerprint, the batch shape, and every option that can change
// the plan, after defaults and with floats written exactly. Costs,
// Parallelism and Progress are left out: they change how fast a plan is
// found, never which plan. A MeshFilter is a function and cannot be
// keyed, so a problem that sets one is not cacheable and PlanKey returns
// "", which PlanCache never stores.
func PlanKey(model, clusterFP string, batch workload.Batch, opts Options) string {
	if opts.MeshFilter != nil {
		return ""
	}
	o := opts.withDefaults()
	return fmt.Sprintf("%s|%s|B%d.s%d.k%d.n%d.r%d|theta=%v|%s|bits=%v|kv=%d|qc=%v|ord=%d|mb=%v|gs=%d|nodes=%d|tl=%d|ilp=%d|only=%t.%t",
		model, clusterFP, batch.Size, batch.ChunkLen, batch.Chunks, batch.GenTokens, batch.Reserve(),
		o.Theta, o.Method, o.Bits, o.BitKV, o.QualityCap, o.OrderingLimit, o.MicroBatches,
		o.GroupSize, o.MaxNodes, int64(o.TimeLimit), o.ILPCandidates, o.PrefillOnlyObjective, o.DecodeOnlyObjective)
}

// PlanCache is an LRU cache of solved plans keyed by PlanKey. Values are
// the planner wire format of internal/plan, kept serialized so the cache
// persists to disk byte-for-byte and every lookup rebinds the plan to
// its caller's live cluster. An entry may also hold, in memory only, the
// Report of the solve that produced it.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	index    map[string]*list.Element
	hits     uint64
	misses   uint64
}

// cacheEntry is one cache slot; only Key and Plan persist. Entries are
// replaced, never mutated, so a lookup may read one outside the lock.
type cacheEntry struct {
	Key  string          `json:"key"`
	Plan json.RawMessage `json:"plan"`
	rep  *Report
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
	return &PlanCache{capacity: capacity, ll: list.New(), index: map[string]*list.Element{}}
}

// get returns the entry for key, marking it most recently used and
// counting the hit or miss, or nil.
func (c *PlanCache) get(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// Get returns the serialized plan for key, marking it most recently
// used. The second result reports whether the key was present.
func (c *PlanCache) Get(key string) (json.RawMessage, bool) {
	if e := c.get(key); e != nil {
		return e.Plan, true
	}
	return nil, false
}

// Lookup returns the plan cached under key, bound to clu and validated
// for a model of the given depth, with the report of the solve that
// made it (nil for an entry restored by Load). An entry that no longer
// decodes, binds or validates — a pool redefined under an unchanged
// name — is dropped and reported as absent.
func (c *PlanCache) Lookup(key string, clu *cluster.Cluster, layers int) (*plan.Plan, *Report, bool) {
	e := c.get(key)
	if e == nil {
		return nil, nil, false
	}
	var p plan.Plan
	if json.Unmarshal(e.Plan, &p) != nil || p.Bind(clu) != nil || p.Validate(layers) != nil {
		c.Drop(key)
		return nil, nil, false
	}
	return &p, e.rep, true
}

// Put stores a serialized plan and the report of its solve (may be nil),
// evicting the least recently used entry beyond capacity. The empty key
// (an uncacheable problem, see PlanKey) is ignored.
func (c *PlanCache) Put(key string, raw json.RawMessage, rep *Report) {
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

// Drop removes a key.
func (c *PlanCache) Drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.ll.Remove(el)
		delete(c.index, key)
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
