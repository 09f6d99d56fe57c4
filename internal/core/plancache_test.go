package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

func raw(s string) json.RawMessage { return json.RawMessage(fmt.Sprintf("%q", s)) }

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	c.Put("a", raw("A"), nil)
	c.Put("b", raw("B"), nil)
	if _, ok := c.Get("a"); !ok { // a becomes MRU
		t.Fatal("a should be cached")
	}
	c.Put("c", raw("C"), nil) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived eviction")
	}
	if got, _ := c.Get("c"); string(got) != `"C"` {
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
	c.Put("a", raw("A2"), nil)
	if got, _ := c.Get("a"); string(got) != `"A2"` {
		t.Fatalf("a after update = %s", got)
	}
	c.Drop("a")
	if _, ok := c.Get("a"); ok || c.Len() != 1 {
		t.Fatal("drop should remove the entry")
	}
}

func TestPlanCachePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "cache.json")

	c := NewPlanCache(4)
	c.Put("old", raw("O"), nil)
	c.Put("mid", raw("M"), nil)
	c.Put("new", raw("N"), nil) // order LRU→MRU: old, mid, new
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
	if _, ok := c2.Get("old"); ok {
		t.Fatal("LRU entry should not survive a capped load")
	}
	for _, k := range []string{"mid", "new"} {
		if _, ok := c2.Get(k); !ok {
			t.Fatalf("%s should survive the round trip", k)
		}
	}

	// Loading into a warm cache does not clobber newer entries.
	c3 := NewPlanCache(4)
	c3.Put("new", raw("N-live"), nil)
	if err := c3.Load(path); err != nil {
		t.Fatal(err)
	}
	if got, _ := c3.Get("new"); string(got) != `"N-live"` {
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
		"ILPCandidates": true, "QualityCap": true, "PrefillOnlyObjective": true, "DecodeOnlyObjective": true,
	}
	ignored := map[string]func(*Options){
		"Costs":       func(o *Options) { o.Costs = NewCostCache() },
		"Parallelism": func(o *Options) { o.Parallelism = 3 },
		"Progress":    func(o *Options) { o.Progress = func(Progress) {} },
	}
	batch := workload.Batch{Size: 16, ChunkLen: 512, Chunks: 1, GenTokens: 32}
	key := func(o Options) string { return PlanKey("opt-13b", "fp", batch, o) }
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
