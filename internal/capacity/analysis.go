package capacity

import (
	"fmt"
	"math"

	"repro/internal/online"
	"repro/internal/workload"
)

// DecodePool is the token-pump model of the decode side: concurrency is
// capped by the KV budget and MaxBatch, steady-state occupancy follows
// from Little's law as a fixed point of the step-latency curve, and TBT
// is the step latency at that occupancy plus the amortized KV-handoff
// delay.
type DecodePool struct {
	// Cap is the concurrency limit: min(MaxBatch, KV budget / mean
	// per-request KV footprint).
	Cap int
	// Occupancy is the fixed-point mean number of concurrent decodes.
	Occupancy float64
	// Rho is demand over capacity: the arrival token rate against the
	// pool's token throughput at full concurrency.
	Rho float64
	// Saturated marks token demand at or beyond pool throughput.
	Saturated bool
	// TBT is the predicted mean time between tokens.
	TBT float64
	// StepSeconds is the decode-step latency at the fixed-point
	// occupancy (TBT without the handoff amortization).
	StepSeconds float64
	// MeanHandoff is the per-request prefill→decode migration delay
	// (cheaper of KV transfer and token-log replay), 0 when colocated.
	MeanHandoff float64
}

// Analysis is the analytic prediction for one engine configuration at
// one arrival rate, mirroring the percentiles the simulator measures.
type Analysis struct {
	Rate     float64
	Workload *WorkloadStats
	Prefill  *PrefillStation
	Decode   *DecodePool
	// Violations lists the SLO targets the prediction misses; empty
	// means the configuration meets the SLO at this rate.
	Violations []string
}

// SLOk reports whether the analysis met every SLO target.
func (a *Analysis) SLOk() bool { return len(a.Violations) == 0 }

// Analyze predicts queue-wait/TTFT/TBT percentiles and per-pool
// utilization for an engine configuration serving Poisson arrivals at
// rate req/s drawn from profile, and checks them against the SLO. It
// builds the configuration's online.Prices, the price book the engine
// charges from, so the prediction and the simulation share one cost
// model and differ only by queueing dynamics.
func Analyze(cfg online.Config, profile *workload.Profile, rate float64, slo SLO) (*Analysis, error) {
	p, err := online.NewPrices(cfg)
	if err != nil {
		return nil, err
	}
	ws, err := AnalyzeWorkload(profile, p.Config().ChunkLen)
	if err != nil {
		return nil, err
	}
	slo = slo.withDefaults()

	pre, err := SolvePrefill(p, ws, rate)
	if err != nil {
		return nil, err
	}
	dec, err := solveDecode(p, ws, profile, rate)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Rate: rate, Workload: ws, Prefill: pre, Decode: dec}

	check := func(name string, got, bound float64) {
		if bound > 0 && got > bound {
			a.Violations = append(a.Violations, fmt.Sprintf("%s %.3fs > %.3fs", name, got, bound))
		}
	}
	if pre.Saturated {
		a.Violations = append(a.Violations, fmt.Sprintf("prefill saturated (rho %.2f)", pre.Rho))
	}
	if dec.Saturated {
		a.Violations = append(a.Violations, fmt.Sprintf("decode saturated (rho %.2f)", dec.Rho))
	}
	if pre.Rho > slo.MaxRho && !pre.Saturated {
		a.Violations = append(a.Violations, fmt.Sprintf("prefill rho %.2f > %.2f", pre.Rho, slo.MaxRho))
	}
	if dec.Rho > slo.MaxRho && !dec.Saturated {
		a.Violations = append(a.Violations, fmt.Sprintf("decode rho %.2f > %.2f", dec.Rho, slo.MaxRho))
	}
	check("queue_wait_p95", pre.WaitP95, slo.QueueWaitP95)
	check("ttft_p95", pre.TTFTP95, slo.TTFTP95)
	check("tbt_mean", dec.TBT, slo.TBTMean)
	return a, nil
}

// solveDecode builds the decode-pool model on the price book's decode
// plan. In colocated configs the prefill plan decodes too and there is
// no handoff.
func solveDecode(p *online.Prices, ws *WorkloadStats, profile *workload.Profile, rate float64) (*DecodePool, error) {
	// Mean per-request KV footprint on the decode plan bounds admission.
	var kvMean float64
	for _, r := range profile.Requests {
		kvMean += float64(p.RequestKV(r.PromptLen, r.OutputLen))
	}
	kvMean /= float64(len(profile.Requests))
	d := &DecodePool{Cap: p.Config().MaxBatch}
	if kvMean > 0 {
		if byKV := int(float64(p.KVBudget()) / kvMean); byKV < d.Cap {
			d.Cap = byKV
		}
	}
	if d.Cap < 1 {
		d.Cap = 1
		d.Saturated = true
	}

	// The fixed point and the occupancy sum below price the same
	// occupancies many times; stepAt[v] keeps s(v) for this solve (0 =
	// not yet priced).
	stepAt := make([]float64, d.Cap+1)
	step := func(v int) float64 {
		if v < 1 {
			v = 1
		}
		if v > d.Cap {
			v = d.Cap
		}
		if stepAt[v] == 0 {
			stepAt[v] = p.DecodeStep(v, ws.BatchMaxCtx(v))
		}
		return stepAt[v]
	}
	if rate == 0 || ws.MeanDecodeSteps == 0 {
		d.StepSeconds = step(1)
		d.TBT = d.StepSeconds
		return d, nil
	}

	// Demand vs capacity: each request needs MeanDecodeSteps steps;
	// at full concurrency the pool completes Cap request-steps per
	// step(Cap) seconds.
	d.Rho = rate * ws.MeanDecodeSteps * step(d.Cap) / float64(d.Cap)
	if d.Rho >= 0.98 {
		d.Saturated = true
	}

	// Little's law fixed point: v = min(Cap, λ · steps/request · s(v)).
	v := float64(d.Cap) / 2
	for i := 0; i < 64; i++ {
		next := rate * ws.MeanDecodeSteps * step(int(math.Ceil(v)))
		if next > float64(d.Cap) {
			next = float64(d.Cap)
		}
		v = (v + next) / 2
	}
	d.Occupancy = v
	// A request experiences the step latency of the batches it shares:
	// occupancy fluctuates (≈ Poisson around the fixed point, as in
	// M/G/∞), and crowded batches hold more requests, so the effective
	// per-token latency is the occupancy-weighted mean of s(v) over the
	// Poisson occupancy distribution, folded at the concurrency cap.
	var num, den float64
	pv := math.Exp(-v)
	for k, cum := 1, pv; k <= d.Cap; k++ {
		pv *= v / float64(k)
		p := pv
		cum += pv
		if k == d.Cap {
			p += 1 - cum // fold the tail into the cap
		}
		num += p * float64(k) * step(k)
		den += p * float64(k)
	}
	if den > 0 {
		d.StepSeconds = num / den
	} else {
		d.StepSeconds = step(int(math.Ceil(v)))
	}

	if p.Disaggregated() {
		d.MeanHandoff = meanHandoff(p, profile)
		d.TBT = d.StepSeconds + d.MeanHandoff/ws.MeanDecodeSteps
	} else {
		d.TBT = d.StepSeconds
	}
	return d, nil
}

// meanHandoff is the average prefill→decode migration delay the
// engine charges a request of profile.
func meanHandoff(p *online.Prices, profile *workload.Profile) float64 {
	var sum float64
	for _, r := range profile.Requests {
		delay, _ := p.Handoff(r.PromptLen, r.OutputLen)
		sum += delay
	}
	return sum / float64(len(profile.Requests))
}
