package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/workload"
)

func ind(spec *model.Spec) *Indicator {
	return ProfileIndicator(spec, []int{3, 4, 8, 16}, quant.Deterministic)
}

var smallBatch = workload.Batch{Size: 32, ChunkLen: 512, Chunks: 1, GenTokens: 32}

func mustAssigner(t *testing.T, spec *model.Spec, clu *cluster.Cluster, opts Options) *Assigner {
	t.Helper()
	a, err := New(spec, clu, ind(spec), opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIndicatorBasics(t *testing.T) {
	spec := model.OPT13B
	in := ind(spec)
	if in.Layers() != spec.Layers {
		t.Fatalf("indicator layers = %d", in.Layers())
	}
	// FP16 column is zero; 3-bit > 4-bit > 8-bit for every layer.
	for i := 0; i < in.Layers(); i++ {
		if in.Of(i, 16) != 0 {
			t.Fatalf("layer %d fp16 ω = %v", i, in.Of(i, 16))
		}
		if !(in.Of(i, 3) > in.Of(i, 4) && in.Of(i, 4) > in.Of(i, 8)) {
			t.Fatalf("layer %d ω not monotone", i)
		}
	}
	// Later layers are more sensitive (Table I trend).
	if in.Of(spec.Layers-1, 4) <= in.Of(0, 4) {
		t.Fatal("depth trend missing from profile indicator")
	}
	// Normalized.
	max := 0.0
	for _, row := range in.Omega {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	if max != 1 {
		t.Fatalf("normalized max = %v", max)
	}
}

func TestIndicatorTotal(t *testing.T) {
	spec := model.OPT13B
	in := ind(spec)
	bits := make([]int, spec.Layers)
	for i := range bits {
		bits[i] = 16
	}
	if in.Total(bits) != 0 {
		t.Fatal("all-fp16 total nonzero")
	}
	bits[0] = 3
	if in.Total(bits) != in.Of(0, 3) {
		t.Fatal("total mismatch")
	}
}

func TestUniformBaselineFP16WhenItFits(t *testing.T) {
	// Cluster 9 (4×V100) fits OPT-13B in FP16 easily: Uniform must stay FP16.
	a := mustAssigner(t, model.OPT13B, cluster.MustPreset(9), Options{Method: MethodUniform})
	p, _, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range p.Bits() {
		if b != 16 {
			t.Fatalf("uniform dropped to %d bits despite fitting fp16", b)
		}
	}
	if p.Method != "uniform" {
		t.Fatalf("method = %s", p.Method)
	}
}

func TestUniformBaselineLowersPrecisionUnderPressure(t *testing.T) {
	// OPT-30B on 4×T4 does not fit FP16; Uniform must lower the bitwidth
	// uniformly.
	a := mustAssigner(t, model.OPT30B, cluster.MustPreset(8), Options{Method: MethodUniform})
	p, _, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	bits := p.Bits()
	first := bits[0]
	if first >= 16 {
		t.Fatalf("uniform kept fp16 on memory-starved cluster")
	}
	for _, b := range bits {
		if b != first {
			t.Fatalf("uniform produced mixed precision: %v", bits)
		}
	}
}

func TestUniformOOMReported(t *testing.T) {
	// Llama-70B on a single V100-32G cannot fit at any bitwidth with KV
	// for 32 requests.
	a := mustAssigner(t, model.Llama70B, cluster.MustPreset(1), Options{Method: MethodUniform})
	_, _, err := a.Plan(context.Background(), smallBatch)
	if err == nil {
		t.Fatal("expected OOM-style failure")
	}
}

func TestHetBalancesStageTimes(t *testing.T) {
	// On cluster 6 (3×P100 + V100), Het must give the V100 more layers
	// than each P100.
	a := mustAssigner(t, model.OPT13B, cluster.MustPreset(6), Options{Method: MethodHet})
	p, _, err := a.Plan(context.Background(), workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 16})
	if err != nil {
		t.Fatal(err)
	}
	var v100Layers, maxP100 int
	for _, st := range p.Stages {
		if st.Device.Spec.Class == "V100-32G" {
			v100Layers += len(st.Bits)
		} else if len(st.Bits) > maxP100 {
			maxP100 = len(st.Bits)
		}
	}
	if v100Layers <= maxP100 {
		t.Fatalf("Het gave V100 %d layers vs P100 max %d", v100Layers, maxP100)
	}
}

func TestHeuristicBeatsUniformOnHeterogeneousCluster(t *testing.T) {
	spec := model.OPT30B
	clu := cluster.MustPreset(5) // 3×T4 + V100
	batch := smallBatch

	uni := mustAssigner(t, spec, clu, Options{Method: MethodUniform})
	uniPlan, _, err := uni.Plan(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	sq := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, Theta: 1})
	sqPlan, rep, err := sq.Plan(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Configs == 0 {
		t.Fatal("no configurations considered")
	}
	uniRes, err := pipeline.Simulate(uniPlan, spec, clu, batch)
	if err != nil {
		t.Fatal(err)
	}
	sqRes, err := pipeline.Simulate(sqPlan, spec, clu, batch)
	if err != nil {
		t.Fatal(err)
	}
	if sqRes.Throughput <= uniRes.Throughput {
		t.Fatalf("SplitQuant heuristic %.1f tkn/s not above Uniform %.1f tkn/s",
			sqRes.Throughput, uniRes.Throughput)
	}
}

func TestILPPolishNotWorseThanHeuristic(t *testing.T) {
	spec := model.OPT13B
	clu := cluster.MustPreset(5)
	batch := workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 16}

	h := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, Theta: 1})
	hPlan, _, err := h.Plan(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	i := mustAssigner(t, spec, clu, Options{
		Method: MethodILP, Theta: 1, TimeLimit: 10 * time.Second, MaxNodes: 100, ILPCandidates: 1,
	})
	iPlan, rep, err := i.Plan(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ILPSolves == 0 {
		t.Fatal("ILP never invoked")
	}
	if iPlan.Objective > hPlan.Objective+1e-9 {
		t.Fatalf("ILP objective %v worse than heuristic %v", iPlan.Objective, hPlan.Objective)
	}
}

// TestILPPlansMemoryBoundCluster plans OPT-30B on the memory-bound
// preset 6, where the memory rows' byte counts once sat next to time
// rows in seconds and broke the simplex's tolerances: at θ = 10 the
// root relaxation read as unbounded and Plan failed. Every θ must plan,
// no worse in Eq. 4 than the heuristic.
func TestILPPlansMemoryBoundCluster(t *testing.T) {
	spec := model.OPT30B
	clu := cluster.MustPreset(6)
	batch := workload.Batch{Size: 32, ChunkLen: 512, Chunks: 1, GenTokens: 32}
	for _, theta := range []float64{0.1, 1, 10} {
		h := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, Theta: theta})
		hPlan, _, err := h.Plan(context.Background(), batch)
		if err != nil {
			t.Fatalf("θ=%v heuristic: %v", theta, err)
		}
		i := mustAssigner(t, spec, clu, Options{Method: MethodILP, Theta: theta})
		iPlan, rep, err := i.Plan(context.Background(), batch)
		if err != nil {
			t.Fatalf("θ=%v ILP: %v", theta, err)
		}
		if rep.ILPSolves == 0 {
			t.Fatalf("θ=%v: ILP never invoked", theta)
		}
		if iPlan.Objective > hPlan.Objective+1e-9 {
			t.Errorf("θ=%v: ILP objective %v worse than heuristic %v", theta, iPlan.Objective, hPlan.Objective)
		}
	}
}

func TestAdabitsIgnoresLatency(t *testing.T) {
	// Fig. 12: adabits maximizes quality under memory but ignores the
	// pipeline; the joint heuristic must be at least as good in objective.
	spec := model.OPT30B
	clu := cluster.MustPreset(6)
	batch := workload.Batch{Size: 8, ChunkLen: 256, Chunks: 1, GenTokens: 16}
	ad := mustAssigner(t, spec, clu, Options{Method: MethodAdabits, Theta: 1})
	adPlan, _, err := ad.Plan(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	hq := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, Theta: 1})
	hqPlan, _, err := hq.Plan(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	adRes, err := pipeline.Simulate(adPlan, spec, clu, batch)
	if err != nil {
		t.Fatal(err)
	}
	hqRes, err := pipeline.Simulate(hqPlan, spec, clu, batch)
	if err != nil {
		t.Fatal(err)
	}
	if hqRes.Throughput < adRes.Throughput*0.999 {
		t.Fatalf("joint optimization %.2f tkn/s below adabits %.2f tkn/s",
			hqRes.Throughput, adRes.Throughput)
	}
}

func TestQualityCapRespected(t *testing.T) {
	spec := model.OPT30B
	clu := cluster.MustPreset(5)
	cap := 0.5
	a := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, Theta: 0.1, QualityCap: cap})
	p, _, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	if p.QualityPenalty > cap+1e-9 {
		t.Fatalf("quality %v exceeds cap %v", p.QualityPenalty, cap)
	}
}

func TestThetaTradeoff(t *testing.T) {
	// Fig. 11: larger θ must not worsen quality and must not improve
	// latency.
	spec := model.OPT30B
	clu := cluster.MustPreset(8)
	batch := smallBatch
	var prevQuality = 1e18
	for _, theta := range []float64{0.1, 10, 1000} {
		a := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, Theta: theta})
		p, _, err := a.Plan(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if p.QualityPenalty > prevQuality+1e-9 {
			t.Fatalf("θ=%v raised quality penalty to %v from %v", theta, p.QualityPenalty, prevQuality)
		}
		prevQuality = p.QualityPenalty
	}
}

func TestPlansValidateAndSimulate(t *testing.T) {
	// Every produced plan must validate and simulate on its cluster.
	for _, cn := range []int{2, 5, 6, 8, 9} {
		clu := cluster.MustPreset(cn)
		spec := model.OPT13B
		a := mustAssigner(t, spec, clu, Options{Method: MethodHeuristic, Theta: 1})
		p, _, err := a.Plan(context.Background(), workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 16})
		if err != nil {
			t.Fatalf("cluster %d: %v", cn, err)
		}
		if err := p.Validate(spec.Layers); err != nil {
			t.Fatalf("cluster %d: %v", cn, err)
		}
		if _, err := pipeline.Simulate(p, spec, clu, workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 16}); err != nil {
			t.Fatalf("cluster %d simulate: %v", cn, err)
		}
	}
}

func TestMixedPrecisionEmergesUnderMemoryPressure(t *testing.T) {
	// On cluster 6 (3×P100-12G + V100) with OPT-30B, the memory and
	// speed asymmetry forces SplitQuant into a plan using more than one
	// bitwidth — the core claim.
	a := mustAssigner(t, model.OPT30B, cluster.MustPreset(6), Options{Method: MethodHeuristic, Theta: 1})
	p, _, err := a.Plan(context.Background(), smallBatch)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, b := range p.Bits() {
		distinct[b] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("expected mixed precision, got uniform %v", p.Bits())
	}
}

func TestGroupingReducesILPWork(t *testing.T) {
	spec := model.OPT13B
	clu := cluster.MustPreset(5)
	batch := workload.Batch{Size: 16, ChunkLen: 256, Chunks: 1, GenTokens: 16}
	run := func(gs int) (*Report, float64) {
		a := mustAssigner(t, spec, clu, Options{
			Method: MethodILP, Theta: 1, GroupSize: gs,
			TimeLimit: 5 * time.Second, MaxNodes: 60, ILPCandidates: 1,
		})
		p, rep, err := a.Plan(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		return rep, p.Objective
	}
	repBig, objBig := run(8)
	repSmall, objSmall := run(4)
	if repBig.SolveSeconds <= 0 || repSmall.SolveSeconds <= 0 {
		t.Fatal("no solve time recorded")
	}
	// Finer grouping explores a larger space; objective must not be
	// worse than coarser grouping by more than numerical noise
	// (both are polished from the same heuristic shortlist).
	if objSmall > objBig*1.05 {
		t.Fatalf("finer grouping degraded objective: %v vs %v", objSmall, objBig)
	}
}

func TestRandomIndicatorMatrixShape(t *testing.T) {
	in := RandomIndicatorMatrix(stats.NewRNG(1), 10, []int{3, 4, 8, 16})
	if in.Layers() != 10 {
		t.Fatalf("layers = %d", in.Layers())
	}
	for i := 0; i < 10; i++ {
		if in.Of(i, 16) != 0 {
			t.Fatal("random indicator fp16 nonzero")
		}
		if in.Of(i, 3) < in.Of(i, 8) {
			t.Fatal("random indicator not monotone")
		}
	}
}

func TestNewValidation(t *testing.T) {
	spec := model.OPT13B
	clu := cluster.MustPreset(9)
	// Wrong layer count.
	bad := &Indicator{Bits: []int{3, 4, 8, 16}, Omega: make([][]float64, 3)}
	for i := range bad.Omega {
		bad.Omega[i] = make([]float64, 4)
	}
	if _, err := New(spec, clu, bad, Options{}); err == nil {
		t.Fatal("wrong-sized indicator accepted")
	}
	// Missing bitwidth.
	in2 := ProfileIndicator(spec, []int{4, 16}, quant.Deterministic)
	if _, err := New(spec, clu, in2, Options{Bits: []int{3, 4, 16}}); err == nil {
		t.Fatal("missing bitwidth accepted")
	}
}

func TestPlanErrorOnBadBatch(t *testing.T) {
	a := mustAssigner(t, model.OPT13B, cluster.MustPreset(9), Options{Method: MethodHeuristic})
	if _, _, err := a.Plan(context.Background(), workload.Batch{}); err == nil {
		t.Fatal("invalid batch accepted")
	}
}

func TestInfeasibleClusterReportsError(t *testing.T) {
	a := mustAssigner(t, model.Llama70B, cluster.MustPreset(1), Options{Method: MethodHeuristic})
	_, _, err := a.Plan(context.Background(), smallBatch)
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
	if errors.Is(err, pipeline.ErrOOM) {
		t.Fatal("planner should report its own error type")
	}
}
