// Package eval is the model-quality harness behind the paper's quality
// experiments (Fig. 4, Table I, Table V, Fig. 11): it hosts downscaled
// "proxy" models (real tinyllm transformers standing in for OPT-1.3B,
// BLOOM-3B, OPT-30B/66B), evaluates perplexity and an accuracy proxy
// under arbitrary per-layer bit assignments, maps full-size planner
// decisions onto proxy depth, and times the competing sensitivity
// indicators.
package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tinyllm"
)

// Proxy is a downscaled stand-in for one of the paper's models: a real
// transformer plus three held-out corpora sampled from its own
// distribution (the WikiText2 / PTB / C4 stand-ins).
type Proxy struct {
	Name    string
	Model   *tinyllm.Model
	Corpora []*tinyllm.Corpus
	// calib caches the calibration activations.
	calib []quant.LayerCalibration
	// refPred holds Model's next-token predictions on each corpus, the
	// reference every quantized model's agreement is scored against.
	refPred [][][]int
}

// NewProxy builds a proxy with the given decoder depth. Width parameters
// are fixed small so PPL evaluations stay fast; depth is what the
// layer-sensitivity experiments vary.
func NewProxy(name string, layers int, seed uint64) (*Proxy, error) {
	cfg := tinyllm.Config{
		Name: name, Layers: layers, Hidden: 64, Heads: 4, FFN: 192,
		Vocab: 192, MaxPos: 96,
	}
	m, err := tinyllm.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	p := &Proxy{Name: name, Model: m}
	// Three "datasets": same distribution, disjoint seeds and slightly
	// different sampling temperatures, like the paper's three corpora.
	specs := []struct {
		name string
		temp float64
	}{
		{"wikitext2", 0.9}, {"ptb", 1.0}, {"c4", 1.1},
	}
	for i, s := range specs {
		c, err := m.SampleCorpus(s.name, stats.NewRNG(seed+uint64(i)+1), 5, 48, s.temp)
		if err != nil {
			return nil, fmt.Errorf("eval: corpus %s: %w", s.name, err)
		}
		pred, err := m.Predictions(c)
		if err != nil {
			return nil, fmt.Errorf("eval: corpus %s: %w", s.name, err)
		}
		p.Corpora = append(p.Corpora, c)
		p.refPred = append(p.refPred, pred)
	}
	return p, nil
}

// Layers returns the proxy's decoder depth.
func (p *Proxy) Layers() int { return p.Model.Cfg.Layers }

// Calibration returns (and caches) real calibration activations
// collected on the first corpus, matching the paper's use of C4
// calibration segments.
func (p *Proxy) Calibration() ([]quant.LayerCalibration, error) {
	if p.calib != nil {
		return p.calib, nil
	}
	cal, err := p.Model.Calibrate(p.Corpora[0], 2)
	if err != nil {
		return nil, err
	}
	p.calib = cal
	return cal, nil
}

// QualityResult is an averaged quality measurement.
type QualityResult struct {
	// PPL is perplexity averaged over the proxy's corpora (lower is
	// better).
	PPL float64
	// Accuracy is the argmax-agreement with the FP16 reference averaged
	// over corpora (the zero-shot-accuracy stand-in; higher is better).
	Accuracy float64
}

// EvalBits measures quality under a per-layer bit assignment (length
// must equal the proxy depth).
func (p *Proxy) EvalBits(bits []int) (QualityResult, error) {
	qm, err := p.Model.ApplyBits(bits, quant.Scheme{}, nil)
	if err != nil {
		return QualityResult{}, err
	}
	return p.quality(qm)
}

// quality scores a quantized copy of the proxy's model on every corpus,
// one prefill per sequence, against the reference predictions.
func (p *Proxy) quality(qm *tinyllm.Model) (QualityResult, error) {
	var pplSum, accSum float64
	for i, c := range p.Corpora {
		ppl, acc, err := qm.Score(c, p.refPred[i])
		if err != nil {
			return QualityResult{}, err
		}
		pplSum += ppl
		accSum += acc
	}
	n := float64(len(p.Corpora))
	return QualityResult{PPL: pplSum / n, Accuracy: accSum / n}, nil
}

// EvalUniform measures quality at a single bitwidth everywhere.
func (p *Proxy) EvalUniform(bit int) (QualityResult, error) {
	bits := make([]int, p.Layers())
	for i := range bits {
		bits[i] = bit
	}
	return p.EvalBits(bits)
}

// EvalRandomMix measures quality with each layer drawing uniformly from
// choice — the paper's mixed4-8 / mixed3-4 configurations.
func (p *Proxy) EvalRandomMix(choice []int, rng *stats.RNG) (QualityResult, error) {
	bits := make([]int, p.Layers())
	for i := range bits {
		bits[i] = choice[rng.Intn(len(choice))]
	}
	return p.EvalBits(bits)
}

// EvalRangeQuantized measures quality with layers [lo, hi) at bit and
// everything else FP16 — the Table I layer-range experiment.
func (p *Proxy) EvalRangeQuantized(lo, hi, bit int) (QualityResult, error) {
	if lo < 0 || hi > p.Layers() || lo >= hi {
		return QualityResult{}, fmt.Errorf("eval: bad layer range [%d, %d) of %d", lo, hi, p.Layers())
	}
	bits := make([]int, p.Layers())
	for i := range bits {
		bits[i] = 16
		if i >= lo && i < hi {
			bits[i] = bit
		}
	}
	return p.EvalBits(bits)
}

// MapBits stretches a full-size model's per-layer bit vector onto the
// proxy depth so that planner output for, say, 64-layer OPT-66B can be
// quality-evaluated on a shallower real model.
func MapBits(bits []int, proxyLayers int) []int {
	out := make([]int, proxyLayers)
	for i := range out {
		src := i * len(bits) / proxyLayers
		out[i] = bits[src]
	}
	return out
}

// IndicatorTiming compares the variance and Hessian indicators on the
// proxy's real calibration data: the matrices and their computation
// wall-clock times (the Table V overhead columns).
type IndicatorTiming struct {
	Variance        *core.Indicator
	Hessian         *core.Indicator
	VarianceSeconds float64
	HessianSeconds  float64
}

// TimeIndicators computes both indicators over the given bit set.
// hessianIters controls power-iteration depth (the expensive part).
func (p *Proxy) TimeIndicators(bits []int, hessianIters int) (*IndicatorTiming, error) {
	cal, err := p.Calibration()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	v := core.CalibratedIndicator(cal, bits, quant.Deterministic)
	vSec := time.Since(t0).Seconds()
	t1 := time.Now()
	h, err := core.HessianIndicatorMatrix(cal, bits, quant.Deterministic, stats.NewRNG(1), hessianIters)
	if err != nil {
		return nil, err
	}
	hSec := time.Since(t1).Seconds()
	return &IndicatorTiming{Variance: v, Hessian: h, VarianceSeconds: vSec, HessianSeconds: hSec}, nil
}

// BudgetedBits greedily chooses per-layer bits that minimize indicated
// degradation subject to a mean-bitwidth budget: all layers start at the
// lowest candidate and are upgraded (largest ω drop per added bit first)
// until the budget is exhausted. It is how the Table V experiment turns
// an indicator into an executable bit assignment.
func BudgetedBits(ind *core.Indicator, meanBitBudget float64) []int {
	layers := ind.Layers()
	// Candidate bits sorted ascending.
	bitsAsc := append([]int(nil), ind.Bits...)
	for i := 1; i < len(bitsAsc); i++ {
		for j := i; j > 0 && bitsAsc[j] < bitsAsc[j-1]; j-- {
			bitsAsc[j], bitsAsc[j-1] = bitsAsc[j-1], bitsAsc[j]
		}
	}
	level := make([]int, layers) // index into bitsAsc
	total := layers * bitsAsc[0]
	budget := int(meanBitBudget * float64(layers))
	colOf := func(b int) int {
		for i, bb := range ind.Bits {
			if bb == b {
				return i
			}
		}
		return -1
	}
	for {
		best, bestGain := -1, 0.0
		var bestCost int
		for i := 0; i < layers; i++ {
			if level[i]+1 >= len(bitsAsc) {
				continue
			}
			cur, next := bitsAsc[level[i]], bitsAsc[level[i]+1]
			cost := next - cur
			if total+cost > budget {
				continue
			}
			drop := ind.Omega[i][colOf(cur)] - ind.Omega[i][colOf(next)]
			gain := drop / float64(cost)
			if best == -1 || gain > bestGain {
				best, bestGain, bestCost = i, gain, cost
			}
		}
		if best == -1 {
			break
		}
		level[best]++
		total += bestCost
	}
	out := make([]int, layers)
	for i := range out {
		out[i] = bitsAsc[level[i]]
	}
	return out
}
