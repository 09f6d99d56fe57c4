package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/workload"
)

// savedSnapshot is a PlanCache.Save snapshot written at commit 896e77c,
// whose PlanKey and Cluster.Fingerprint were built with fmt, after
// solving snapshotProblems in order.
const savedSnapshot = "testdata/plancache-896e77c.json"

// snapProblem is one planning problem of the saved snapshot.
type snapProblem struct {
	model string
	clu   func() *cluster.Cluster
	batch workload.Batch
	opts  Options
}

// snapshotProblems span presets, a derated and a shrunk cluster, every
// method and objective, and θ, quality caps, bit sets, micro-batch
// lists and ILP limits off their defaults.
func snapshotProblems() []snapProblem {
	preset := func(n int) func() *cluster.Cluster { return func() *cluster.Cluster { return cluster.MustPreset(n) } }
	return []snapProblem{
		{"bloom-560m", preset(5), workload.Batch{Size: 32, ChunkLen: 512, Chunks: 1, GenTokens: 32},
			Options{Method: MethodHeuristic, Theta: 1, OrderingLimit: 4}},
		{"opt-1.3b", preset(2), workload.Batch{Size: 8, ChunkLen: 128, Chunks: 2, GenTokens: 16, ReserveTokens: 64},
			Options{Method: MethodAdabits, Theta: 0.3}},
		{"bloom-1b7", preset(6), workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 64},
			Options{Method: MethodUniform}},
		{"opt-1.3b", preset(3), workload.Batch{Size: 4, ChunkLen: 1024, Chunks: 1, GenTokens: 128},
			Options{Method: MethodHet, MicroBatches: []int{1, 2, 4}}},
		{"bloom-560m", preset(9), workload.Batch{Size: 32, ChunkLen: 512, Chunks: 1, GenTokens: 32},
			Options{Method: MethodILP, Bits: []int{4, 8, 16}, BitKV: 8, QualityCap: 2.5, TimeLimit: 5 * time.Second,
				MaxNodes: 50, GroupSize: 4, ILPCandidates: 1, OrderingLimit: 2}},
		{"opt-1.3b", func() *cluster.Cluster {
			c := *cluster.MustPreset(7)
			c.Nodes = append([]cluster.Node(nil), c.Nodes...)
			c.Nodes[0].SpeedScale, c.Nodes[0].MemScale = 0.5, 0.75
			return &c
		}, workload.Batch{Size: 16, ChunkLen: 512, Chunks: 1, GenTokens: 32},
			Options{Method: MethodHeuristic, Theta: 1e-9, Objective: DecodeOnly, OrderingLimit: 4}},
		{"bloom-3b", preset(1), workload.Batch{Size: 16, ChunkLen: 512, Chunks: 2, GenTokens: 32},
			Options{Method: MethodHeuristic, Theta: 1e21, Objective: PrefillOnly}},
		{"qwen2.5-7b", func() *cluster.Cluster {
			c, err := cluster.MustPreset(10).Shrink(gpu.A100, 1)
			if err != nil {
				panic(err)
			}
			return c
		}, workload.Batch{Size: 8, ChunkLen: 512, Chunks: 1, GenTokens: 32},
			Options{Method: MethodHeuristic, Theta: 0.75, OrderingLimit: 2}},
	}
}

// TestPlanCacheLoadsSavedSnapshot loads a snapshot saved before the
// cache key was built without fmt and asks for every problem it holds:
// each must hit under the saved key and return the saved plan.
func TestPlanCacheLoadsSavedSnapshot(t *testing.T) {
	data, err := os.ReadFile(savedSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	var saved cacheFile
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatal(err)
	}
	problems := snapshotProblems()
	if len(saved.Entries) != len(problems) {
		t.Fatalf("snapshot holds %d plans, want %d", len(saved.Entries), len(problems))
	}
	c := NewPlanCache(0)
	if err := c.Load(savedSnapshot); err != nil {
		t.Fatal(err)
	}
	for i, pr := range problems {
		e := saved.Entries[len(problems)-1-i] // saved most recently used first
		spec, err := model.Lookup(pr.model)
		if err != nil {
			t.Fatal(err)
		}
		clu := pr.clu()
		if key := PlanKey(spec.Name, clu, pr.batch, pr.opts); key != e.Key {
			t.Fatalf("problem %d: PlanKey = %q, saved under %q", i, key, e.Key)
		}
		p, _, hit, err := c.Plan(context.Background(), spec, clu, pr.batch, pr.opts)
		if err != nil || !hit {
			t.Fatalf("problem %d (%s): hit %v, err %v", i, e.Key, hit, err)
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, e.Plan); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("problem %d: hit returned\n%s\nsaved\n%s", i, got, want.Bytes())
		}
	}
	if hits, misses := c.Stats(); hits != uint64(len(problems)) || misses != 0 {
		t.Fatalf("%d hits, %d misses; want %d, 0", hits, misses, len(problems))
	}
}
