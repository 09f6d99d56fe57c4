package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/workload"
)

// bruteForceBest enumerates every contiguous partition and bit
// assignment for a tiny instance and returns the optimal objective.
func bruteForceBest(oc *orderingCosts, ind *Indicator, theta float64) (float64, *assignment) {
	layers := ind.Layers()
	nDev := len(oc.devs)
	nBits := len(oc.bits)
	best := math.Inf(1)
	var bestAs *assignment

	// Enumerate stage boundaries: stageOf is non-decreasing from 0 to
	// nDev-1, each device non-empty.
	var stageOf []int
	var rec func(layer, stage int)
	var bitRec func(as *assignment, layer int)
	bitRec = func(as *assignment, layer int) {
		if layer == layers {
			ev := evaluate(as, oc, ind, theta)
			if ev.Feasible && ev.Objective < best {
				best = ev.Objective
				bestAs = as.clone()
			}
			return
		}
		for bi := 0; bi < nBits; bi++ {
			as.bitIdx[layer] = bi
			bitRec(as, layer+1)
		}
	}
	rec = func(layer, stage int) {
		if layer == layers {
			if stage == nDev-1 {
				as := &assignment{stageOf: append([]int(nil), stageOf...), bitIdx: make([]int, layers)}
				bitRec(as, 0)
			}
			return
		}
		// Stay on the current stage.
		stageOf = append(stageOf, stage)
		rec(layer+1, stage)
		stageOf = stageOf[:len(stageOf)-1]
		// Advance to the next stage (layer becomes its first layer).
		if stage+1 < nDev && layer > 0 {
			stageOf = append(stageOf, stage+1)
			rec(layer+1, stage+1)
			stageOf = stageOf[:len(stageOf)-1]
		}
	}
	stageOf = append(stageOf, 0)
	rec(1, 0)
	return best, bestAs
}

// tinySpec is a 6-layer model small enough to brute-force (2 devices ×
// 2 bits × 6 layers → 5 partitions × 4096 bit vectors).
var tinySpec = &model.Spec{
	Name: "tiny-6l", Layers: 6, Hidden: 1024, FFN: 4096, Heads: 16,
	Vocab: 32000, MaxPos: 2048, EmbedDim: 1024, LearnedPositions: true,
}

func TestILPMatchesBruteForce(t *testing.T) {
	clu := cluster.MustPreset(3) // V100 + A100, two devices
	devs := clu.Devices()
	bits := []int{4, 16}
	ind := ProfileIndicator(tinySpec, bits, quant.Deterministic)
	batch := workload.Batch{Size: 8, ChunkLen: 256, Chunks: 1, GenTokens: 8}

	for _, theta := range []float64{0, 1, 50} {
		oc := buildCosts(tinySpec, clu, devs, bits, batch, 4, 4, 16, nil)
		want, wantAs := bruteForceBest(oc, ind, theta)
		if wantAs == nil {
			t.Fatal("brute force found nothing feasible")
		}
		as, sol, err := solveILP(context.Background(), oc, ind, theta, ilpConfig{
			GroupSize: 1, TimeLimit: 30 * time.Second, MaxNodes: 5000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if as == nil {
			t.Fatalf("θ=%v: ILP found no solution (status %v)", theta, sol.Status)
		}
		got := evaluate(as, oc, ind, theta)
		if !got.Feasible {
			t.Fatalf("θ=%v: ILP solution infeasible", theta)
		}
		if got.Objective > want*(1+1e-6)+1e-9 {
			t.Fatalf("θ=%v: ILP objective %v worse than brute force %v (brute %v vs ilp %v)",
				theta, got.Objective, want, wantAs, as)
		}
	}
}

func TestHeuristicNearBruteForce(t *testing.T) {
	// Over a grid of tiny instances the bitwidth-transfer heuristic must
	// return a feasible assignment that never beats the exhaustive
	// optimum (a lower objective would mean the search scored a move
	// wrongly) and comes within 15% of it (it is exact on many instances;
	// the bound guards against regressions).
	// Each shape runs with η = ξ = microBatch.
	shapes := []struct {
		batch      workload.Batch
		microBatch int
	}{
		{workload.Batch{Size: 8, ChunkLen: 256, Chunks: 1, GenTokens: 8}, 4},
		{workload.Batch{Size: 32, ChunkLen: 512, Chunks: 2, GenTokens: 64}, 8},
		{workload.Batch{Size: 128, ChunkLen: 1024, Chunks: 1, GenTokens: 256}, 32},
	}
	for _, preset := range []int{3, 2} {
		clu := cluster.MustPreset(preset)
		devs := clu.Devices()
		for _, bits := range [][]int{{4, 16}, {3, 4, 8, 16}} {
			ind := ProfileIndicator(tinySpec, bits, quant.Deterministic)
			for _, shape := range shapes {
				batch, mb := shape.batch, shape.microBatch
				oc := buildCosts(tinySpec, clu, devs, bits, batch, mb, mb, 16, nil)
				start, err := adabits(oc, ind)
				if err != nil {
					t.Fatal(err)
				}
				for _, theta := range []float64{0, 1, 10} {
					name := fmt.Sprintf("preset %d bits %v batch %d×%d→%d η=ξ=%d θ=%v",
						preset, bits, batch.Size, batch.PaddedPrompt(), batch.GenTokens, mb, theta)
					want, wantAs := bruteForceBest(oc, ind, theta)
					if wantAs == nil {
						t.Fatalf("%s: brute force found nothing feasible", name)
					}
					got := evaluate(bitwidthTransfer(start, oc, ind, theta, 0, 0), oc, ind, theta)
					if !got.Feasible {
						t.Fatalf("%s: heuristic infeasible", name)
					}
					if got.Objective < want-1e-9 {
						t.Fatalf("%s: heuristic %v beats the exhaustive optimum %v", name, got.Objective, want)
					}
					if got.Objective > want*1.15 {
						t.Fatalf("%s: heuristic %v more than 15%% above optimum %v", name, got.Objective, want)
					}
				}
			}
		}
	}
}

func TestBruteForceMemoryConstraintRespected(t *testing.T) {
	// Sanity on the harness itself: with a huge batch nothing fits and
	// brute force returns +inf.
	clu := cluster.MustPreset(3)
	devs := clu.Devices()
	bits := []int{16}
	ind := ProfileIndicator(tinySpec, bits, quant.Deterministic)
	batch := workload.Batch{Size: 4096, ChunkLen: 2000, Chunks: 1, GenTokens: 48}
	oc := buildCosts(tinySpec, clu, devs, bits, batch, 64, 64, 16, nil)
	obj, as := bruteForceBest(oc, ind, 1)
	if !math.IsInf(obj, 1) || as != nil {
		t.Fatalf("expected infeasible, got %v", obj)
	}
}

// exhaustiveQualityCap is the Σω cap of TestPlanMatchesExhaustive. It
// binds: uncapped plans of the test's instances reach Σω ≈ 0.0155.
const exhaustiveQualityCap = 0.012

// exhaustivePlan is the reference the bound-ordered search must
// reproduce: the method's step solved on every enumerated configuration,
// with no pruning, then the ranking and polish tail Plan shares.
func exhaustivePlan(a *Assigner, batch workload.Batch) (*plan.Plan, error) {
	theta := a.opts.Theta
	var cands []candidate
	for _, cfg := range a.searchConfigs(batch.Size) {
		if cand, _ := a.solveConfig(a.buildConfigCosts(cfg, batch), cfg.key(), theta); cand != nil {
			cands = append(cands, *cand)
		}
	}
	return a.finishJoint(context.Background(), cands, batch, &Report{}, newProgressSink(nil, math.Inf(1)), theta)
}

// TestPlanMatchesExhaustive requires Plan, which skips configurations
// whose optimistic bound cannot reach the shortlist, to return the
// exhaustive reference's plan bit for bit across methods, objective
// variants, clusters and worker counts.
func TestPlanMatchesExhaustive(t *testing.T) {
	spec := model.OPT13B
	variants := []struct {
		name string
		opts Options
	}{
		{"joint", Options{}},
		{"quality-cap", Options{QualityCap: exhaustiveQualityCap}},
		{"prefill-only", Options{Objective: PrefillOnly}},
		{"decode-only", Options{Objective: DecodeOnly}},
	}
	pruned := 0
	for _, method := range []Method{MethodHeuristic, MethodILP, MethodAdabits, MethodUniform, MethodHet} {
		for _, v := range variants {
			for _, preset := range []int{2, 5, 8, 9} {
				opts := v.opts
				opts.Method, opts.Theta, opts.OrderingLimit, opts.MaxNodes = method, 1, 2, 60
				clu := cluster.MustPreset(preset)
				want, wantErr := exhaustivePlan(mustAssigner(t, spec, clu, opts), smallBatch)
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/preset%d/workers%d", method, v.name, preset, workers), func(t *testing.T) {
						opts.Parallelism = workers
						got, rep, err := mustAssigner(t, spec, clu, opts).Plan(context.Background(), smallBatch)
						if wantErr != nil {
							if !errors.Is(err, ErrInfeasible) || !errors.Is(wantErr, ErrInfeasible) {
								t.Fatalf("err = %v, exhaustive err = %v; want both infeasible", err, wantErr)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if g, w := planJSON(t, got), planJSON(t, want); g != w {
							t.Fatalf("plan differs from the exhaustive reference:\ngot  %s\nwant %s", g, w)
						}
						pruned += rep.PrunedConfigs
					})
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no configuration was pruned anywhere on the grid; the comparison proves nothing")
	}
}
