// Package pipeline executes deployment plans on the simulated cluster:
// a discrete-event pipeline simulator that schedules prefill chunks and
// decode steps through the plan's stages with micro-batching,
// asynchronous inter-stage transfers, a master engine performing
// embedding and LM-head work, and per-stage memory (OOM) accounting.
// Its outputs — end-to-end batch latency and output-token throughput —
// are the "measured" numbers of the evaluation figures, independent of
// the planner's analytic objective.
package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/workload"
)

// ErrOOM marks plans whose stages exceed device memory, mirroring the
// "0 = OOM" bars of Fig. 10.
var ErrOOM = errors.New("pipeline: stage exceeds device memory")

// Result summarizes one simulated batch execution.
type Result struct {
	// PrefillSeconds is the time from batch start to the last prefill
	// micro-batch leaving the pipeline.
	PrefillSeconds float64
	// DecodeSeconds is the token-generation time for the remaining n-1
	// tokens.
	DecodeSeconds float64
	// TotalSeconds is end-to-end batch latency.
	TotalSeconds float64
	// OutputTokens is B·n.
	OutputTokens int
	// Throughput is OutputTokens / TotalSeconds (tkn/s).
	Throughput float64
	// StagePrefill and StageDecode give per-stage per-pass latencies
	// (decode at mid-generation context), for bottleneck analysis.
	StagePrefill []float64
	StageDecode  []float64
	// StageMemory is the accounted bytes per stage.
	StageMemory []int64
	// StageBusy is the accumulated compute time per stage; dividing by
	// TotalSeconds gives per-stage utilization.
	StageBusy []float64
	// BubbleFraction is 1 − mean stage utilization: the share of
	// stage-seconds lost to pipeline bubbles and imbalance.
	BubbleFraction float64
	// TTFT is the time to first token: when the first prefill
	// micro-batch's logits are ready (§II-C's online-serving metric,
	// reported for reference even though SplitQuant targets offline
	// throughput).
	TTFT float64
	// TBT is the mean time between tokens during decode.
	TBT float64
}

// Utilization returns StageBusy[i] / TotalSeconds for each stage.
func (r *Result) Utilization() []float64 {
	out := make([]float64, len(r.StageBusy))
	if r.TotalSeconds <= 0 {
		return out
	}
	for i, b := range r.StageBusy {
		out[i] = b / r.TotalSeconds
	}
	return out
}

// Simulate runs the plan for one batch of the given workload on the
// cluster and returns the measured result. It fails with ErrOOM when a
// stage does not fit, and with a validation error for malformed plans.
func Simulate(p *plan.Plan, spec *model.Spec, clu *cluster.Cluster, batch workload.Batch) (*Result, error) {
	if err := p.Validate(spec.Layers); err != nil {
		return nil, err
	}
	if err := batch.Validate(); err != nil {
		return nil, err
	}
	nStages := len(p.Stages)

	// ---- Memory accounting (constraints 12-13). ----
	// KV is reserved for every concurrent request (batch.Size); the
	// transient activation buffer is sized by the prefill micro-batch,
	// which is what actually flows through a stage at once.
	actV := p.PrefillMicroBatch
	if actV > batch.Size {
		actV = batch.Size
	}
	kv := batch.KVBytesPerLayer(spec, p.BitKV)
	memory := make([]int64, nStages)
	for i, st := range p.Stages {
		memory[i] = spec.StageOverheadBytes(actV, batch.ChunkLen, i == 0)
		for _, bit := range st.Bits {
			memory[i] += spec.LayerBytes(bit, kv)
		}
		if memory[i] > st.Device.UsableMemory() {
			return nil, fmt.Errorf("%w: stage %d needs %.2f GiB, device %s has %.2f GiB",
				ErrOOM, i, gib(memory[i]), st.Device.ID, gib(st.Device.UsableMemory()))
		}
	}

	// ---- Per-pass stage and link times. ----
	// A stage's work depends only on the pass shape (v, seq or ctx),
	// never on the micro-batch or the chunk, so each is computed once
	// per shape; link times once per run. Decode passes differ only in
	// their context, so each stage's decode curves are built once.
	eta := p.PrefillMicroBatch
	if eta > batch.Size {
		eta = batch.Size
	}
	xi := p.DecodeMicroBatch
	if xi > batch.Size {
		xi = batch.Size
	}
	var buf [3 * stackStages]float64
	s := scratch(buf[:], 3*nStages)
	preLink, decLink, stageFree := s[:nStages], s[nStages:2*nStages], s[2*nStages:]
	prefillWork := make([]float64, nStages)
	for j := range p.Stages {
		st := &p.Stages[j]
		prefillWork[j] = sumByBit(st.Bits, func(bit int) float64 {
			return st.Device.Group.Prefill(spec, eta, batch.ChunkLen, bit).Latency()
		})
	}
	var cbuf [stageBits * stackStages]bitCurve
	var ebuf [stackStages]int
	dec := newDecodeCurves(cbuf[:0], scratch(ebuf[:], nStages), p, spec, xi)
	linkTimes(preLink, p, clu, spec.ActivationTransferBytes(eta, batch.ChunkLen))
	linkTimes(decLink, p, clu, spec.ActivationTransferBytes(xi, 1))
	master := p.Stages[0].Device.Group

	// ---- Prefill phase: μpre micro-batches × κ chunks, event-driven. ----
	muPre := ceilDiv(batch.Size, eta)
	stageBusy := make([]float64, nStages)
	embed := master.Embed(spec, eta, batch.ChunkLen).Latency()
	var prefillEnd, firstOut float64
	for mb := 0; mb < muPre; mb++ {
		for chunk := 0; chunk < batch.Chunks; chunk++ {
			// The master embeds each chunk before stage 0 consumes it.
			arrive := embed * float64(mb*batch.Chunks+chunk+1)
			for j, work := range prefillWork {
				start := arrive
				if stageFree[j] > start {
					start = stageFree[j]
				}
				finish := start + work
				stageFree[j] = finish
				stageBusy[j] += work
				arrive = finish + preLink[j]
			}
			if arrive > prefillEnd {
				prefillEnd = arrive
			}
			if mb == 0 && chunk == batch.Chunks-1 {
				firstOut = arrive + master.LMHead(spec, eta).Latency()
			}
		}
	}
	// First-token LM head for every request.
	prefillEnd += master.LMHead(spec, batch.Size).Latency()

	// ---- Decode phase: n-1 steps, micro-batches of ξ. ----
	muDec := ceilDiv(batch.Size, xi)
	decSteps := batch.GenTokens - 1
	decodeEnd := prefillEnd
	// stageDecode holds each step's stage work, and at the end the
	// mid-generation figure the Result reports.
	stageDecode := make([]float64, nStages)
	if decSteps > 0 {
		for j := range stageFree {
			stageFree[j] = prefillEnd
		}
		// mbReady[m] = when micro-batch m's next step may begin (its
		// previous token has been sampled).
		mbReady := make([]float64, muDec)
		for m := range mbReady {
			mbReady[m] = prefillEnd
		}
		lm := master.LMHead(spec, xi).Latency()
		for t := 0; t < decSteps; t++ {
			dec.work(stageDecode, batch.PaddedPrompt()+t+1)
			if end := decodeStep(muDec, mbReady, stageFree, stageBusy, stageDecode, decLink, lm); end > decodeEnd {
				decodeEnd = end
			}
		}
	}

	// ---- Assemble the result. ----
	res := &Result{
		PrefillSeconds: prefillEnd,
		DecodeSeconds:  decodeEnd - prefillEnd,
		TotalSeconds:   decodeEnd,
		OutputTokens:   batch.Size * batch.GenTokens,
		StagePrefill:   prefillWork,
		StageDecode:    stageDecode,
		StageMemory:    memory,
		StageBusy:      stageBusy,
	}
	if res.TotalSeconds > 0 {
		var util float64
		for _, b := range stageBusy {
			util += b / res.TotalSeconds
		}
		res.BubbleFraction = 1 - util/float64(nStages)
	}
	dec.work(res.StageDecode, batch.PaddedPrompt()+batch.GenTokens/2)
	if res.TotalSeconds > 0 {
		res.Throughput = float64(res.OutputTokens) / res.TotalSeconds
	}
	res.TTFT = firstOut
	if decSteps > 0 {
		res.TBT = res.DecodeSeconds / float64(decSteps)
	}
	return res, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func gib(b int64) float64 { return float64(b) / (1 << 30) }
