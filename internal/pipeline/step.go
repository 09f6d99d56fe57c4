// Iteration-level primitives for the online tier: where Simulate runs a
// whole fixed batch to completion, the continuous-batching scheduler
// needs the cost of *one* token step at the decode batch's current
// composition (requests join and leave at step boundaries) and the KV
// headroom that bounds how many requests a plan's stages can hold
// concurrently. Both reuse Simulate's stage-latency and memory models,
// and one decode step is the same primitive (decodeStep) in both.
//
// A step priced here starts from an idle pipeline, so a fixed batch
// stepped token by token costs exactly what Simulate charges it only
// when the batch is one micro-batch (ξ ≥ B). With several micro-batches
// Simulate overlaps one step's tail with the next step's head, and the
// idle-start sum is larger: on preset 9, OPT-13B, B=32, 32 tokens it is
// 1.70× Simulate's decode time at ξ=8 and 1.42× at ξ=5.
package pipeline

import (
	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/plan"
)

// stackStages is the stage count up to which the decode-step scratch
// lives on the stack.
const stackStages = 8

// maxBit is the widest weight bitwidth a plan carries.
const maxBit = 16

// stageBits is the most distinct bitwidths a validated stage carries:
// plan.Validate admits 3, 4, 8 and 16.
const stageBits = 4

// scratch returns n zeroed values: buf[:n] when buf, which must be
// zeroed, is long enough.
func scratch[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	return buf[:n]
}

// sumByBit returns Σ cost(bit) over bits in order. The cost model
// prices a layer by its bit alone within one pass shape, so cost runs
// once per distinct bit; the sum keeps layer order, and with it every
// rounding of the per-layer loop.
func sumByBit(bits []int, cost func(bit int) float64) float64 {
	var memo [maxBit + 1]float64
	var seen uint32
	t := 0.0
	for _, bit := range bits {
		if uint(bit) > maxBit {
			t += cost(bit)
			continue
		}
		if seen&(1<<bit) == 0 {
			memo[bit] = cost(bit)
			seen |= 1 << bit
		}
		t += memo[bit]
	}
	return t
}

// decodeStageWork sets work[j] to stage j's compute time for one decode
// micro-batch of xi requests at context length ctx. It prices a single
// context, so it evaluates each distinct bit's latency once and builds
// no curves to keep.
func decodeStageWork(work []float64, p *plan.Plan, spec *model.Spec, xi, ctx int) {
	for j := range p.Stages {
		st := &p.Stages[j]
		work[j] = sumByBit(st.Bits, func(bit int) float64 {
			return st.Device.Group.Decode(spec, xi, ctx, bit, p.BitKV).Latency()
		})
	}
}

// bitCurve is one stage's decode curve at one of its bits.
type bitCurve struct {
	bit   int
	curve gpu.DecodeCurve
}

// decodeCurves prices one decode micro-batch on every stage of a plan at
// any context length. Each stage keeps one curve per distinct bit it
// carries, built once; a step evaluates them at its context and sums
// the stage in layer order, which keeps every rounding of the per-layer
// loop.
type decodeCurves struct {
	stages []plan.Stage
	curves []bitCurve // stage-major
	ends   []int      // stage j's curves are curves[ends[j-1]:ends[j]]
}

// newDecodeCurves builds the curves of p's stages for micro-batches of
// xi requests, appending to curves and filling ends (one per stage).
// Every bit must be in [0, maxBit], as Validate guarantees.
func newDecodeCurves(curves []bitCurve, ends []int, p *plan.Plan, spec *model.Spec, xi int) decodeCurves {
	for j := range p.Stages {
		st := &p.Stages[j]
		var seen uint32
		for _, bit := range st.Bits {
			if seen&(1<<bit) == 0 {
				seen |= 1 << bit
				curves = append(curves, bitCurve{bit, st.Device.Group.DecodeCurve(spec, xi, bit, p.BitKV)})
			}
		}
		ends[j] = len(curves)
	}
	return decodeCurves{stages: p.Stages, curves: curves, ends: ends}
}

// work sets work[j] to stage j's compute time for one decode
// micro-batch at context length ctx.
func (d *decodeCurves) work(work []float64, ctx int) {
	var at [maxBit + 1]float64
	k := 0
	for j := range d.stages {
		for ; k < d.ends[j]; k++ {
			at[d.curves[k].bit] = d.curves[k].curve.At(ctx)
		}
		t := 0.0
		for _, bit := range d.stages[j].Bits {
			t += at[bit]
		}
		work[j] = t
	}
}

// linkTimes sets link[j] to the time to ship bytes from stage j to
// stage j+1, and 0 after the last stage.
func linkTimes(link []float64, p *plan.Plan, clu *cluster.Cluster, bytes int64) {
	for j := range link {
		link[j] = 0
		if j < len(link)-1 {
			link[j] = float64(bytes) / clu.LinkBandwidth(&p.Stages[j].Device, &p.Stages[j+1].Device)
		}
	}
}

// decodeStep runs one decode step of mu micro-batches through the
// stages, event-driven: each stage is serially busy, transfers overlap
// compute, and the master's LM head (lm) samples each micro-batch.
// work[j] is stage j's time per micro-batch and link[j] the transfer
// after it. stageFree[j] carries when stage j is next free, in and out;
// busy, when non-nil, accumulates each stage's compute. mbReady[m] is
// when micro-batch m may enter stage 0 and receives when its token is
// sampled; a nil mbReady starts every micro-batch at time 0. It returns
// the latest sample time (0 if none is later).
func decodeStep(mu int, mbReady, stageFree, busy, work, link []float64, lm float64) float64 {
	var end float64
	for m := 0; m < mu; m++ {
		arrive := 0.0
		if mbReady != nil {
			arrive = mbReady[m]
		}
		for j, w := range work {
			start := arrive
			if stageFree[j] > start {
				start = stageFree[j]
			}
			finish := start + w
			stageFree[j] = finish
			if busy != nil {
				busy[j] += w
			}
			arrive = finish + link[j]
		}
		done := arrive + lm
		if mbReady != nil {
			mbReady[m] = done
		}
		if done > end {
			end = done
		}
	}
	return end
}

// DecodeStepLatency returns the wall-clock of one decode step for a
// batch of v concurrent requests at context length ctx on the plan:
// ⌈v/ξ⌉ micro-batches flow through the stages event-driven (each stage
// serially busy, transfers overlapped) and the master's LM head samples
// each micro-batch. It is Simulate's decode step (decodeStep) starting
// from an idle pipeline — the state a continuous batcher is in at every
// step boundary. It is the one-shot price: it builds nothing to keep,
// which for one call is faster than building curves to evaluate once.
// A caller that prices many steps on one plan uses a DecodeStepper.
func DecodeStepLatency(p *plan.Plan, spec *model.Spec, clu *cluster.Cluster, v, ctx int) float64 {
	if v <= 0 || len(p.Stages) == 0 {
		return 0
	}
	xi := p.DecodeMicroBatch
	if xi > v {
		xi = v
	}
	if xi < 1 {
		xi = 1
	}
	n := len(p.Stages)
	var buf [3 * stackStages]float64
	s := scratch(buf[:], 3*n)
	work, link, stageFree := s[:n], s[n:2*n], s[2*n:]
	decodeStageWork(work, p, spec, xi, ctx)
	linkTimes(link, p, clu, spec.ActivationTransferBytes(xi, 1))
	return decodeStep(ceilDiv(v, xi), nil, stageFree, nil, work, link, p.Stages[0].Device.Group.LMHead(spec, xi).Latency())
}

// DecodeStepper prices many decode steps on one plan: what
// DecodeStepLatency re-derives on every call — each stage's curve per
// distinct bit, the link times and the LM head — it keeps per
// micro-batch size ξ, built on first use. A step then evaluates the
// curves at its context and runs decodeStep, and equals
// DecodeStepLatency bit for bit. A stepper is not safe for concurrent
// use.
type DecodeStepper struct {
	p      *plan.Plan
	spec   *model.Spec
	clu    *cluster.Cluster
	shapes []*stepShape // shapes[ξ-1], nil until first used
}

// stepShape is what a decode step of micro-batches of ξ requests costs
// apart from its context: the stage curves, the links and the LM head.
type stepShape struct {
	dec  decodeCurves
	link []float64
	lm   float64
}

// NewDecodeStepper returns a stepper for p, which must pass
// plan.Validate and must not change while the stepper is in use.
func NewDecodeStepper(p *plan.Plan, spec *model.Spec, clu *cluster.Cluster) *DecodeStepper {
	return &DecodeStepper{p: p, spec: spec, clu: clu, shapes: make([]*stepShape, max(p.DecodeMicroBatch, 1))}
}

// Latency returns DecodeStepLatency(p, spec, clu, v, ctx).
func (s *DecodeStepper) Latency(v, ctx int) float64 {
	n := len(s.p.Stages)
	if v <= 0 || n == 0 {
		return 0
	}
	xi := max(min(s.p.DecodeMicroBatch, v), 1)
	sh := s.shapes[xi-1]
	if sh == nil {
		sh = &stepShape{link: make([]float64, n), lm: s.p.Stages[0].Device.Group.LMHead(s.spec, xi).Latency()}
		sh.dec = newDecodeCurves(nil, make([]int, n), s.p, s.spec, xi)
		linkTimes(sh.link, s.p, s.clu, s.spec.ActivationTransferBytes(xi, 1))
		s.shapes[xi-1] = sh
	}
	var buf [2 * stackStages]float64
	sc := scratch(buf[:], 2*n)
	work, stageFree := sc[:n], sc[n:]
	sh.dec.work(work, ctx)
	return decodeStep(ceilDiv(v, xi), nil, stageFree, nil, work, sh.link, sh.lm)
}

// KVBudget returns the per-layer KV byte budget of the plan's tightest
// stage: the memory left on each stage after weights, the decode
// activation buffer, and (on the master) the embedding table, divided
// by the stage's layer count. A set of concurrent requests fits the
// plan iff the sum of their per-layer KV footprints stays within this
// budget — the admission currency of the continuous batcher. Returns 0
// when some stage cannot even hold its weights.
func KVBudget(p *plan.Plan, spec *model.Spec) int64 {
	xi := p.DecodeMicroBatch
	if xi < 1 {
		xi = 1
	}
	var budget int64 = -1
	for i, st := range p.Stages {
		if len(st.Bits) == 0 {
			continue
		}
		free := st.Device.UsableMemory() - spec.StageOverheadBytes(xi, 1, i == 0)
		for _, bit := range st.Bits {
			free -= spec.LayerBytes(bit, 0)
		}
		perLayer := free / int64(len(st.Bits))
		if budget < 0 || perLayer < budget {
			budget = perLayer
		}
	}
	if budget < 0 {
		budget = 0
	}
	return budget
}

// RequestKVBytes returns one request's per-layer KV footprint: prompt
// positions plus the reserved generation budget at the plan's KV
// bitwidth. Summed over a decode batch it is compared against KVBudget.
func RequestKVBytes(p *plan.Plan, spec *model.Spec, prompt, reserve int) int64 {
	return spec.KVBytesPerLayer(1, prompt, reserve, p.BitKV)
}
