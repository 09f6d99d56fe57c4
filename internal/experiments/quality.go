package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/stats"
)

// proxyCache memoizes proxies across experiments within one process.
var proxyCache = map[string]*eval.Proxy{}

func getProxy(name string, layers int, seed uint64) (*eval.Proxy, error) {
	if p, ok := proxyCache[name]; ok {
		return p, nil
	}
	p, err := eval.NewProxy(name, layers, seed)
	if err != nil {
		return nil, err
	}
	proxyCache[name] = p
	return p, nil
}

// Fig4 regenerates the quantization-scheme quality comparison: PPL and
// accuracy of BLOOM-3B and OPT-1.3B proxies under uniform 16/8/4/3-bit
// and the mixed4-8 / mixed3-4 random mixes.
func Fig4(ctx context.Context) (*Result, error) {
	t := newTable("model", "scheme", "avg PPL", "avg acc (%)")
	metrics := map[string]float64{}
	models := []struct {
		name   string
		layers int
		seed   uint64
	}{
		{"bloom-3b-proxy", 12, 30}, {"opt-1.3b-proxy", 8, 13},
	}
	for _, m := range models {
		p, err := getProxy(m.name, m.layers, m.seed)
		if err != nil {
			return nil, err
		}
		add := func(scheme string, r eval.QualityResult) {
			t.addf("%s|%s|%.2f|%.1f", m.name, scheme, r.PPL, r.Accuracy*100)
			metrics[m.name+"/"+scheme+"/ppl"] = r.PPL
		}
		for _, bit := range []int{16, 8, 4, 3} {
			r, err := p.EvalUniform(bit)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("fp/int%d", bit), r)
		}
		m48, err := p.EvalRandomMix([]int{4, 8}, stats.NewRNG(m.seed+100))
		if err != nil {
			return nil, err
		}
		add("mixed4-8", m48)
		m34, err := p.EvalRandomMix([]int{3, 4}, stats.NewRNG(m.seed+101))
		if err != nil {
			return nil, err
		}
		add("mixed3-4", m34)
	}
	return &Result{
		ID:      "fig4",
		Title:   "Quality under uniform vs mixed quantization (proxy models)",
		Text:    t.String(),
		Metrics: metrics,
	}, nil
}

// Table1 regenerates the layer-range sensitivity experiment: quantize
// one third of the layers to 4-bit (rest FP16) and compare which third
// hurts least. The paper's trend: the earliest range is safest.
func Table1(ctx context.Context) (*Result, error) {
	t := newTable("model", "layers at 4-bit", "avg PPL", "avg acc (%)")
	metrics := map[string]float64{}
	models := []struct {
		name   string
		layers int
		seed   uint64
	}{
		{"opt-1.3b-proxy", 8, 13}, {"bloom-3b-proxy", 12, 30},
	}
	for _, m := range models {
		p, err := getProxy(m.name, m.layers, m.seed)
		if err != nil {
			return nil, err
		}
		third := m.layers / 3
		for k := 0; k < 3; k++ {
			lo, hi := k*third, (k+1)*third
			if k == 2 {
				hi = m.layers
			}
			r, err := p.EvalRangeQuantized(lo, hi, 4)
			if err != nil {
				return nil, err
			}
			t.addf("%s|%d-%d|%.2f|%.1f", m.name, lo, hi, r.PPL, r.Accuracy*100)
			metrics[fmt.Sprintf("%s/range%d/ppl", m.name, k)] = r.PPL
		}
	}
	return &Result{
		ID:      "table1",
		Title:   "Quality vs which layer range is quantized (Table I)",
		Text:    t.String(),
		Metrics: metrics,
	}, nil
}

// Table5 regenerates the indicator ablation: Random vs Hessian vs
// SplitQuant's variance indicator, comparing both the quality of the bit
// allocations they induce (PPL under a fixed mean-bit budget) and the
// indicator computation overhead.
func Table5(ctx context.Context) (*Result, error) {
	t := newTable("model", "indicator", "avg PPL", "overhead (s)")
	metrics := map[string]float64{}
	models := []struct {
		name   string
		layers int
		seed   uint64
		budget float64
	}{
		{"opt-66b-proxy", 16, 66, 5}, {"opt-30b-proxy", 12, 31, 5},
	}
	bitset := core.CandidateBits
	for _, m := range models {
		p, err := getProxy(m.name, m.layers, m.seed)
		if err != nil {
			return nil, err
		}
		timing, err := p.TimeIndicators(bitset, 40)
		if err != nil {
			return nil, err
		}
		randInd := core.RandomIndicatorMatrix(stats.NewRNG(m.seed+7), m.layers, bitset)

		rows := []struct {
			label    string
			ind      *core.Indicator
			overhead float64
		}{
			{"random", randInd, 0},
			{"hessian", timing.Hessian, timing.HessianSeconds},
			{"splitquant", timing.Variance, timing.VarianceSeconds},
		}
		for _, row := range rows {
			bits := eval.BudgetedBits(row.ind, m.budget)
			r, err := p.EvalBits(bits)
			if err != nil {
				return nil, err
			}
			t.addf("%s|%s|%.2f|%.4f", m.name, row.label, r.PPL, row.overhead)
			metrics[m.name+"/"+row.label+"/ppl"] = r.PPL
			metrics[m.name+"/"+row.label+"/overhead"] = row.overhead
		}
	}
	return &Result{
		ID:      "table5",
		Title:   "Variance indicator vs Hessian vs Random (Table V)",
		Text:    t.String(),
		Metrics: metrics,
	}, nil
}
