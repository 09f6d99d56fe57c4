package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/workload"
)

func raw(s string) json.RawMessage { return json.RawMessage(fmt.Sprintf("%q", s)) }

// cached returns the serialized plan under key, marking it most recently
// used and counting the hit or miss.
func cached(c *PlanCache, key string) (json.RawMessage, bool) {
	if e := c.get([]byte(key)); e != nil {
		return e.Plan, true
	}
	return nil, false
}

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	c.put("a", raw("A"), nil)
	c.put("b", raw("B"), nil)
	if _, ok := cached(c, "a"); !ok { // a becomes MRU
		t.Fatal("a should be cached")
	}
	c.put("c", raw("C"), nil) // evicts b (LRU)
	if _, ok := cached(c, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := cached(c, "a"); !ok {
		t.Fatal("a should have survived eviction")
	}
	if got, _ := cached(c, "c"); string(got) != `"C"` {
		t.Fatalf("c = %s", got)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses", hits, misses)
	}

	// Re-putting an existing key updates in place without eviction.
	c.put("a", raw("A2"), nil)
	if got, _ := cached(c, "a"); string(got) != `"A2"` {
		t.Fatalf("a after update = %s", got)
	}
	c.replace("a", c.get([]byte("a")), nil)
	if _, ok := cached(c, "a"); ok || c.Len() != 1 {
		t.Fatal("drop should remove the entry")
	}
}

// uniformPlanJSON serializes a plan splitting layers over the first two
// devices of clu's last mesh with every layer at bit.
func uniformPlanJSON(t *testing.T, clu *cluster.Cluster, layers, bit int) json.RawMessage {
	t.Helper()
	meshes := clu.Meshes()
	devs := meshes[len(meshes)-1]
	p := &plan.Plan{Model: "opt-13b", PrefillMicroBatch: 4, DecodeMicroBatch: 8, BitKV: 16, Method: "test"}
	half := layers / 2
	for i, n := range []int{half, layers - half} {
		bits := make([]int, n)
		for j := range bits {
			bits[j] = bit
		}
		p.Stages = append(p.Stages, plan.Stage{Device: devs[i], FirstLayer: i * half, Bits: bits})
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// lookupPlan looks key up for a batch of spec on clu and returns a copy
// of the bound plan, as a hit does.
func lookupPlan(c *PlanCache, key string, spec *model.Spec, clu *cluster.Cluster) (*plan.Plan, bool) {
	e := c.lookup([]byte(key), spec, clu, smallBatch)
	if e == nil {
		return nil, false
	}
	return copyPlan(e.bound), true
}

// allBits reports whether every layer of p is at bit.
func allBits(p *plan.Plan, bit int) bool {
	for _, b := range p.Bits() {
		if b != bit {
			return false
		}
	}
	return true
}

// TestPlanCacheStaleDropKeepsFreshPlan replays the interleaving of a
// lookup whose entry fails to decode while a put lands: the failed
// entry's removal must not take the fresh plan with it.
func TestPlanCacheStaleDropKeepsFreshPlan(t *testing.T) {
	c := NewPlanCache(4)
	c.put("k", raw("not a plan"), nil)
	stale := c.get([]byte("k"))
	fresh := raw("fresh")
	c.put("k", fresh, nil)
	c.replace("k", stale, nil) // the stale lookup's drop
	if got, ok := cached(c, "k"); !ok || string(got) != string(fresh) {
		t.Fatalf("fresh plan lost to a stale drop: %s, %v", got, ok)
	}
	c.replace("k", c.get([]byte("k")), nil) // the current entry does drop
	if _, ok := cached(c, "k"); ok {
		t.Fatal("current entry survived its drop")
	}
}

// TestPlanCacheConcurrentLookup runs lookups of one key and cluster from
// eight goroutines while another puts and drops it. Every hit must be a
// valid plan of the one version ever stored, and writing into or
// growing a returned plan's Bits must never reach a later lookup or
// another stage. Afterwards a put
// of a different plan must replace the decoded one.
func TestPlanCacheConcurrentLookup(t *testing.T) {
	clu := cluster.MustPreset(2)
	const layers = 40
	planA, planB := uniformPlanJSON(t, clu, layers, 8), uniformPlanJSON(t, clu, layers, 4)
	c := NewPlanCache(4)
	c.put("k", planA, nil)

	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%3 == 2 {
				c.replace("k", c.get([]byte("k")), nil)
			} else {
				c.put("k", planA, nil)
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				p, ok := lookupPlan(c, "k", model.OPT13B, clu)
				if !ok {
					continue
				}
				if err := p.Validate(layers); err != nil {
					t.Errorf("lookup returned an invalid plan: %v", err)
					return
				}
				if !allBits(p, 8) {
					t.Errorf("lookup returned bits %v, want all 8", p.Bits())
					return
				}
				for j := range p.Stages {
					for k := range p.Stages[j].Bits {
						p.Stages[j].Bits[k] = 3
					}
				}
				p.Stages[0].Bits = append(p.Stages[0].Bits, 16)
				if p.Stages[1].Bits[0] != 3 {
					t.Error("growing stage 0's Bits overwrote stage 1's")
					return
				}
			}
		}()
	}
	readers.Wait()
	close(done)
	writer.Wait()

	c.put("k", planA, nil)
	if _, ok := lookupPlan(c, "k", model.OPT13B, clu); !ok {
		t.Fatal("plan A missing")
	}
	c.put("k", planB, nil)
	p, ok := lookupPlan(c, "k", model.OPT13B, clu)
	if !ok || !allBits(p, 4) {
		t.Fatalf("after put of plan B, lookup = %v, %v; want plan B", p, ok)
	}
}

// TestPlanCacheLookupRebinds checks that a decoded plan serves only the
// cluster and depth it was bound for: a lookup with another cluster gets
// that cluster's devices, and a lookup the plan does not fit drops the
// entry.
func TestPlanCacheLookupRebinds(t *testing.T) {
	full := cluster.MustPreset(2)
	slow := *full // same device IDs, every device at half speed
	slow.Nodes = append([]cluster.Node(nil), full.Nodes...)
	for i := range slow.Nodes {
		slow.Nodes[i].SpeedScale = 0.5
	}
	const layers = 40
	c := NewPlanCache(4)
	c.put("k", uniformPlanJSON(t, full, layers, 8), nil)
	for i, clu := range []*cluster.Cluster{full, full, &slow, &slow, full} {
		p, ok := lookupPlan(c, "k", model.OPT13B, clu)
		if !ok {
			t.Fatalf("lookup %d missed", i)
		}
		meshes := clu.Meshes()
		want := meshes[len(meshes)-1][0]
		if got := p.Stages[0].Device; got.ID != want.ID || got.Spec.FP16FLOPS != want.Spec.FP16FLOPS {
			t.Fatalf("lookup %d: stage 0 bound to %s at %v FLOP/s, cluster has %s at %v",
				i, got.ID, got.Spec.FP16FLOPS, want.ID, want.Spec.FP16FLOPS)
		}
	}
	deeper := *model.OPT13B
	deeper.Layers++
	if _, ok := lookupPlan(c, "k", &deeper, full); ok {
		t.Fatal("a 40-layer plan validated for 41 layers")
	}
	if c.Len() != 0 {
		t.Fatal("an entry that no longer validates was kept")
	}
}

func TestPlanCachePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "cache.json")

	c := NewPlanCache(4)
	c.put("old", raw("O"), nil)
	c.put("mid", raw("M"), nil)
	c.put("new", raw("N"), nil) // order LRU→MRU: old, mid, new
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}

	// A fresh cache of capacity 2 keeps only the two most recently used.
	c2 := NewPlanCache(2)
	if err := c2.Load(path); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Fatalf("len after capped load = %d", c2.Len())
	}
	if _, ok := cached(c2, "old"); ok {
		t.Fatal("LRU entry should not survive a capped load")
	}
	for _, k := range []string{"mid", "new"} {
		if _, ok := cached(c2, k); !ok {
			t.Fatalf("%s should survive the round trip", k)
		}
	}

	// Loading into a warm cache does not clobber newer entries.
	c3 := NewPlanCache(4)
	c3.put("new", raw("N-live"), nil)
	if err := c3.Load(path); err != nil {
		t.Fatal(err)
	}
	if got, _ := cached(c3, "new"); string(got) != `"N-live"` {
		t.Fatalf("live entry clobbered by load: %s", got)
	}

	// Missing file is a clean first start; corrupt file is an error.
	if err := NewPlanCache(2).Load(filepath.Join(dir, "nope.json")); err != nil {
		t.Fatalf("missing snapshot should not error: %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewPlanCache(2).Load(bad); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt snapshot: got %v", err)
	}

	// Save leaves no temp droppings behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestPlanKeyCoversOptions walks every field of Options. Changing a field
// that can change a plan must change PlanKey; changing Costs,
// Parallelism or Progress must not; a MeshFilter makes the problem
// uncacheable. A field this test does not classify fails it, so an
// option added later cannot silently go unkeyed.
func TestPlanKeyCoversOptions(t *testing.T) {
	keyed := map[string]bool{
		"Bits": true, "Theta": true, "BitKV": true, "GroupSize": true, "TimeLimit": true,
		"MaxNodes": true, "Method": true, "OrderingLimit": true, "MicroBatches": true,
		"ILPCandidates": true, "QualityCap": true, "Objective": true,
	}
	ignored := map[string]func(*Options){
		"Costs":       func(o *Options) { o.Costs = NewCostCache() },
		"Parallelism": func(o *Options) { o.Parallelism = 3 },
		"Progress":    func(o *Options) { o.Progress = func(Progress) {} },
	}
	batch := workload.Batch{Size: 16, ChunkLen: 512, Chunks: 1, GenTokens: 32}
	clu := cluster.MustPreset(2)
	key := func(o Options) string { return PlanKey("opt-13b", clu, batch, o) }
	// base sets every keyed field off its default, so each change below
	// survives withDefaults.
	base := Options{
		Bits: []int{3, 4, 8, 16}, Theta: 1, BitKV: 8, GroupSize: 2, TimeLimit: time.Second,
		MaxNodes: 50, Method: MethodHeuristic, OrderingLimit: 4, MicroBatches: []int{2, 4},
		ILPCandidates: 2, QualityCap: 5,
	}
	want := key(base)

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		o := base
		switch {
		case name == "MeshFilter":
			o.MeshFilter = func([]cluster.Device) bool { return true }
			if k := key(o); k != "" {
				t.Errorf("MeshFilter set: PlanKey = %q, want \"\" (uncacheable)", k)
			}
			continue
		case ignored[name] != nil:
			ignored[name](&o)
			if key(o) != want {
				t.Errorf("changing Options.%s changed PlanKey; it never changes a plan", name)
			}
			continue
		case !keyed[name]:
			t.Errorf("Options.%s is not classified: key it in PlanKey and list it here", name)
			continue
		}
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("Options.%s: no change defined for kind %s", name, v.Kind())
		}
		if key(o) == want {
			t.Errorf("changing Options.%s does not change PlanKey", name)
		}
	}

	// θ is rendered exactly, not to six significant digits.
	a, b := base, base
	a.Theta, b.Theta = 1.0000001, 1.0000002
	if key(a) == key(b) {
		t.Errorf("θ %v and %v share the key %q", a.Theta, b.Theta, key(a))
	}
	// Defaults are applied first: spelling a default out keeps the key.
	if key(Options{}) != key(Options{}.withDefaults()) {
		t.Error("an explicit default changes PlanKey")
	}
}

// TestPlanCachePlan checks the one way a plan is obtained. A miss, a hit
// and a miss on a shrunk cluster each return the plan a direct
// Assigner.Plan returns; a stored entry keeps the solve's counts but no
// per-configuration stats; writing into a returned plan never reaches
// the next hit; and a cancelled solve is not stored.
func TestPlanCachePlan(t *testing.T) {
	spec := model.BLOOM560M
	full := cluster.MustPreset(5) // 3×T4 + 1×V100
	degraded, err := full.Shrink(gpu.T4, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Method: MethodHeuristic, OrderingLimit: 4}
	direct := func(clu *cluster.Cluster) string {
		p, _, err := mustAssigner(t, spec, clu, opts).Plan(context.Background(), smallBatch)
		if err != nil {
			t.Fatal(err)
		}
		return planJSON(t, p)
	}
	c := NewPlanCache(4)
	get := func(clu *cluster.Cluster, wantHit bool) (*plan.Plan, *Report) {
		t.Helper()
		p, rep, hit, err := c.Plan(context.Background(), spec, clu, smallBatch, opts)
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit {
			t.Fatalf("hit = %v, want %v", hit, wantHit)
		}
		if got, want := planJSON(t, p), direct(clu); got != want {
			t.Fatalf("cached plan differs from a direct solve:\ngot  %s\nwant %s", got, want)
		}
		return p, rep
	}

	_, solved := get(full, false)
	if len(solved.ConfigStats) == 0 {
		t.Fatal("a solve reported no per-configuration stats")
	}
	// The first hit decodes the entry and the second copies the decoded
	// plan; neither's caller can reach the next hit.
	for i := 0; i < 2; i++ {
		p, rep := get(full, true)
		if rep.ConfigStats != nil || rep.Configs != solved.Configs || rep.PrunedConfigs != solved.PrunedConfigs {
			t.Fatalf("stored report = %+v, want the solve's counts without ConfigStats", rep)
		}
		for i := range p.Stages {
			for j := range p.Stages[i].Bits {
				p.Stages[i].Bits[j] = 3
			}
		}
		p.Stages = p.Stages[:1]
	}
	get(full, true)
	get(degraded, false)
	if hits, misses := c.Stats(); hits != 3 || misses != 2 || c.Len() != 2 {
		t.Fatalf("%d hits, %d misses, %d entries; want 3, 2, 2", hits, misses, c.Len())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := opts
	cut.Parallelism = 1
	cut.Progress = func(Progress) { cancel() }
	c = NewPlanCache(4)
	if _, rep, _, err := c.Plan(ctx, spec, full, smallBatch, cut); err != nil || !rep.Cancelled {
		t.Fatalf("cancelled solve: err %v, report %+v; want its incumbent", err, rep)
	}
	if c.Len() != 0 {
		t.Fatal("a cancelled solve was stored")
	}
}
