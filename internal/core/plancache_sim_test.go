package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/workload"
)

// simShape is one job shape as serve synthesizes it: a model and a
// batch of B requests drawn from a request profile, in chunks of 2048.
type simShape struct {
	model, workload string
	size            int
}

// serveShapes are serve's four request profiles, one job each, at the
// sizes of the offline benchmark's jobs.
var serveShapes = []simShape{
	{"opt-13b", "fixed", 32},
	{"qwen2.5-14b", "summarization", 16},
	{"qwen2.5-14b", "longcontext", 4},
	{"opt-13b", "chat", 16},
}

func (s simShape) batch(t *testing.T) (*model.Spec, workload.Batch) {
	t.Helper()
	spec, err := model.Lookup(s.model)
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.Fixed(1, 512, 32)
	if s.workload != "fixed" {
		if prof, err = workload.Named(s.workload, 1); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := workload.Synthesize(prof, s.size, 2048, spec.MaxPos)
	if err != nil {
		t.Fatal(err)
	}
	return spec, batch
}

// evenPlanJSON serializes a plan of spec splitting its layers evenly
// over the single devices of clu, every layer at bit.
func evenPlanJSON(t *testing.T, spec *model.Spec, clu *cluster.Cluster, bit int) json.RawMessage {
	t.Helper()
	devs := clu.Meshes()[0]
	p := &plan.Plan{Model: spec.Name, PrefillMicroBatch: 4, DecodeMicroBatch: 8, BitKV: 16, Method: "test"}
	first := 0
	for i, d := range devs {
		n := (spec.Layers*(i+1))/len(devs) - first
		bits := make([]int, n)
		for j := range bits {
			bits[j] = bit
		}
		p.Stages = append(p.Stages, plan.Stage{Device: d, FirstLayer: first, Bits: bits})
		first += n
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// resultBits flattens every field of r in order, floats by their bit
// patterns, so that two results compare bit for bit.
func resultBits(r *pipeline.Result) []uint64 {
	var out []uint64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			out = append(out, math.Float64bits(v.Float()))
		case reflect.Int, reflect.Int64:
			out = append(out, uint64(v.Int()))
		case reflect.Slice:
			out = append(out, uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic("resultBits: no encoding for kind " + v.Kind().String())
		}
	}
	walk(reflect.ValueOf(r).Elem())
	return out
}

// sameSim reports whether two simulations agree: bit for bit, or on an
// error with the same text.
func sameSim(a *pipeline.Result, aErr error, b *pipeline.Result, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return reflect.DeepEqual(resultBits(a), resultBits(b))
}

// simHit runs PlanAndSimulate, which must hit, and checks its simulation
// against a fresh pipeline.Simulate of the returned plan.
func simHit(t *testing.T, c *PlanCache, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch, opts Options) (*pipeline.Result, error) {
	t.Helper()
	p, sim, _, hit, err := c.PlanAndSimulate(context.Background(), spec, clu, batch, opts)
	if !hit && err == nil {
		t.Fatal("PlanAndSimulate missed a stored key")
	}
	if err != nil {
		if !errors.Is(err, pipeline.ErrOOM) {
			t.Fatalf("PlanAndSimulate: %v", err)
		}
		e := c.lookup([]byte(PlanKey(spec.Name, clu, batch, opts)), spec, clu, batch)
		p = copyPlan(e.bound)
	}
	fresh, freshErr := pipeline.Simulate(p, spec, clu, batch)
	if !sameSim(sim, err, fresh, freshErr) {
		t.Fatalf("a hit's simulation (%+v, %v) differs from a fresh one (%+v, %v)", sim, err, fresh, freshErr)
	}
	return sim, err
}

// TestPlanCacheSimulationMatchesFresh stores an even plan at 4 and 16
// bits for each of serve's four job shapes on every preset, and checks
// that a hit's simulation equals a fresh pipeline.Simulate bit for bit,
// an ErrOOM verdict included, and that a second hit returns the same
// memoized result.
func TestPlanCacheSimulationMatchesFresh(t *testing.T) {
	opts := Options{Method: MethodHeuristic, Theta: 1}
	var fits, ooms int
	for n := 1; n <= 10; n++ {
		clu := cluster.MustPreset(n)
		for _, shape := range serveShapes {
			spec, batch := shape.batch(t)
			for _, bit := range []int{4, 16} {
				c := NewPlanCache(4)
				c.put(PlanKey(spec.Name, clu, batch, opts), evenPlanJSON(t, spec, clu, bit), nil)
				first, err := simHit(t, c, spec, clu, batch, opts)
				if err != nil {
					ooms++
				} else {
					fits++
				}
				again, againErr := simHit(t, c, spec, clu, batch, opts)
				if again != first || againErr != err {
					t.Fatalf("preset %d, %s, %d bits: the second hit simulated again", n, shape.workload, bit)
				}
			}
		}
	}
	if fits == 0 || ooms == 0 {
		t.Fatalf("%d plans fit and %d ran out of memory; want both verdicts", fits, ooms)
	}
}

// TestPlanCacheSimulationRebinds checks that every way an entry's
// binding can go stale gives a fresh simulation, equal to a fresh
// pipeline.Simulate: a lookup with another cluster pointer of the same
// fingerprint, or with another *model.Spec of the same name; a put over
// the key, of the same plan or another; a Load into another cache; and
// an eviction followed by a put.
func TestPlanCacheSimulationRebinds(t *testing.T) {
	spec, batch := serveShapes[0].batch(t)
	opts := Options{Method: MethodHeuristic, Theta: 1}
	clu := cluster.MustPreset(2)
	key := PlanKey(spec.Name, clu, batch, opts)
	raw4, raw8 := evenPlanJSON(t, spec, clu, 4), evenPlanJSON(t, spec, clu, 8)
	c := NewPlanCache(1)
	c.put(key, raw4, nil)

	last, err := simHit(t, c, spec, clu, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(step string, spec *model.Spec, clu *cluster.Cluster, c *PlanCache) *pipeline.Result {
		t.Helper()
		sim, err := simHit(t, c, spec, clu, batch, opts)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if sim == last {
			t.Fatalf("%s kept the stale simulation", step)
		}
		last = sim
		return sim
	}

	twin := *clu
	fresh("another cluster pointer", spec, &twin, c)
	fresh("back to the first cluster", spec, clu, c)

	wider := *spec
	wider.FFN *= 2
	if sim := fresh("another spec of the same name", &wider, clu, c); sameSim(sim, nil, fresh("the first spec", spec, clu, c), nil) {
		t.Fatal("a spec with twice the FFN width simulated the same")
	}

	c.put(key, raw4, nil)
	fresh("a put of the same plan", spec, clu, c)
	c.put(key, raw8, nil)
	at8 := fresh("a put of another plan", spec, clu, c)
	if p, _, _, _, _ := c.PlanAndSimulate(context.Background(), spec, clu, batch, opts); !allBits(p, 8) {
		t.Fatalf("after a put of the 8-bit plan, a hit returned bits %v", p.Bits())
	}

	path := filepath.Join(t.TempDir(), "cache.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewPlanCache(1)
	if err := loaded.Load(path); err != nil {
		t.Fatal(err)
	}
	if sim := fresh("a Load", spec, clu, loaded); !sameSim(sim, nil, at8, nil) {
		t.Fatal("the loaded plan simulated differently from the saved one")
	}

	c.put("another key", raw4, nil) // capacity 1: evicts key
	if c.Len() != 1 || len(c.Keys()) != 1 || c.Keys()[0] != "another key" {
		t.Fatalf("keys after eviction = %v", c.Keys())
	}
	c.put(key, raw8, nil)
	fresh("an eviction", spec, clu, c)
}

// TestPlanKeyCoversSimulatedBatch walks every field of workload.Batch,
// as TestPlanKeyCoversOptions walks Options: a change of a field that
// moves pipeline.Simulate of a fixed plan must move PlanKey, so a
// memoized simulation is never served for a batch it was not made for.
// A field of a kind this test cannot change, or whose deltas here never
// move Simulate, fails it.
func TestPlanKeyCoversSimulatedBatch(t *testing.T) {
	spec := model.OPT13B
	clu := cluster.MustPreset(9)
	var p plan.Plan
	if err := json.Unmarshal(evenPlanJSON(t, spec, clu, 4), &p); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(clu); err != nil {
		t.Fatal(err)
	}
	opts := Options{Method: MethodHeuristic, Theta: 1}
	base := workload.Batch{Size: 16, ChunkLen: 256, Chunks: 2, GenTokens: 32}
	baseSim, baseErr := pipeline.Simulate(&p, spec, clu, base)
	if baseErr != nil {
		t.Fatal(baseErr)
	}
	baseKey := PlanKey(spec.Name, clu, base, opts)

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if k := typ.Field(i).Type.Kind(); k != reflect.Int {
			t.Errorf("Batch.%s: no change defined for kind %s", name, k)
			continue
		}
		moved := false
		for _, delta := range []int64{1, 7, 100} {
			b := base
			f := reflect.ValueOf(&b).Elem().Field(i)
			f.SetInt(f.Int() + delta)
			sim, err := pipeline.Simulate(&p, spec, clu, b)
			if sameSim(sim, err, baseSim, nil) {
				continue
			}
			moved = true
			if PlanKey(spec.Name, clu, b, opts) == baseKey {
				t.Errorf("Batch.%s += %d moves Simulate but not PlanKey", name, delta)
			}
		}
		if !moved {
			t.Errorf("Batch.%s: no delta moves Simulate; give it one that does", name)
		}
	}
}

// TestPlanCacheConcurrentSimulatedHits runs PlanAndSimulate on one key
// from eight goroutines that alternate between two cluster pointers of
// one fingerprint, so entries are rebound and replaced while others
// read them; every simulation must equal the fresh one. Run it under
// -race.
func TestPlanCacheConcurrentSimulatedHits(t *testing.T) {
	spec, batch := serveShapes[0].batch(t)
	opts := Options{Method: MethodHeuristic, Theta: 1}
	a := cluster.MustPreset(2)
	b := *a
	c := NewPlanCache(2)
	c.put(PlanKey(spec.Name, a, batch, opts), evenPlanJSON(t, spec, a, 4), nil)
	p, _, _, _, err := c.PlanAndSimulate(context.Background(), spec, a, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.Simulate(p, spec, a, batch)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				clu := a
				if (g+i)%3 == 0 {
					clu = &b
				}
				_, sim, _, hit, err := c.PlanAndSimulate(context.Background(), spec, clu, batch, opts)
				if err != nil || !hit {
					t.Errorf("hit %v, err %v", hit, err)
					return
				}
				if !sameSim(sim, nil, want, nil) {
					t.Error("a concurrent hit's simulation differs from a fresh one")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
