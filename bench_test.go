package splitquant_test

// Micro-benchmarks of the performance-critical primitives: quantization,
// matmul, a simplex solve, a cold plan and a pipeline simulation.
//
//	go test -bench=. -benchmem -run='^$' .
//
// The paper's tables and figures are reproduced by cmd/experiments
// (each checked by its Test*Shape in internal/experiments), and the
// gated snapshot scenarios by cmd/benchjson.

import (
	"testing"

	splitquant "repro"
	"repro/internal/lp"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func BenchmarkQuantDequantInt4(b *testing.B) {
	rng := stats.NewRNG(1)
	w := tensor.NewMatrix(512, 512)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormMS(0, 0.05))
	}
	b.SetBytes(int64(len(w.Data)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quant.QuantDequant(w, quant.Scheme{Bits: 4}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := stats.NewRNG(3)
	m := tensor.NewMatrix(256, 256)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMS(0, 1))
	}
	b.SetBytes(2 * 256 * 256 * 256) // MACs as a proxy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(m, m)
	}
}

func BenchmarkSimplexSolve(b *testing.B) {
	// A representative planner-scale LP: 120 vars, 80 rows.
	rng := stats.NewRNG(4)
	n, m := 120, 80
	p := &lp.Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = rng.Float64()
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.A = append(p.A, row)
		p.Senses = append(p.Senses, lp.LE)
		p.B = append(p.B, 10+rng.Float64()*10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanHeuristicCluster5 times a cold plan: each iteration
// plans on a new System, whose plan cache is empty.
func BenchmarkPlanHeuristicCluster5(b *testing.B) {
	w := splitquant.FixedWorkload(32, 512, 32)
	for i := 0; i < b.N; i++ {
		sys, err := splitquant.New("opt-30b", splitquant.Preset(5),
			splitquant.WithMethod("heuristic"), splitquant.WithTheta(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Plan(w, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatePipeline(b *testing.B) {
	sys, err := splitquant.New("opt-30b", splitquant.Preset(5),
		splitquant.WithMethod("heuristic"), splitquant.WithTheta(1))
	if err != nil {
		b.Fatal(err)
	}
	dep, err := sys.Plan(splitquant.FixedWorkload(32, 512, 32), 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Measure(); err != nil {
			b.Fatal(err)
		}
	}
}
