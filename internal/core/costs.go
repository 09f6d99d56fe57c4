package core

import (
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/workload"
)

// orderingCosts caches the per-layer cost tables for one device ordering
// and one (η, ξ) micro-batch pair: the l^{s,0} and l^{s·κ, n/2} terms of
// constraints (5)-(6), the memory reservations of (12)-(13), and the
// communication lower bounds of (7).
type orderingCosts struct {
	devs  []cluster.Device
	bits  []int
	batch workload.Batch
	eta   int // prefill micro-batch size η
	xi    int // decode micro-batch size ξ

	// pre[j][bi] is the per-layer prefill time of one chunk on device j
	// at bits[bi], multiplied later by κ.
	pre [][]float64
	// dec[j][bi] is the per-layer per-token decode time at mid-generation
	// context s·κ + n/2.
	dec [][]float64
	// memLayer[bi] is the per-layer placement footprint: weights at
	// bits[bi] plus the full-batch KV reservation.
	memLayer []int64
	// memBudget[j] is the device memory available to layers after
	// activations (and M_emb on device 0).
	memBudget []int64
	// commPre[j], commDec[j] are the P/f_j transfer-time lower bounds.
	commPre, commDec []float64
	// muPre, muDec are the micro-batch counts ⌈B/η⌉ and ⌈B/ξ⌉.
	muPre, muDec int
	// aPre, aDec are the objective weights on T^pre_max and T^dec_max.
	aPre, aDec float64
	// masterConst is the z-independent master-engine cost of the
	// configuration: token embedding per prefill chunk micro-batch plus
	// the LM-head projection per decode step micro-batch (and once for
	// the first token of every request). It shifts the objective without
	// affecting the layer assignment, but matters when comparing
	// micro-batch and topology configurations.
	masterConst float64
}

// buildCosts assembles the cost tables for one candidate configuration.
// The per-(device, bitwidth, phase, shape) latency evaluations are
// memoized through costs when non-nil; orderings of the same mesh (and
// re-plans on overlapping topologies) then share all device tables and
// only the adjacency-dependent communication terms are recomputed.
func buildCosts(spec *model.Spec, clu *cluster.Cluster, devs []cluster.Device,
	bits []int, batch workload.Batch, eta, xi, bitKV int, costs *CostCache) *orderingCosts {

	oc := &orderingCosts{devs: devs, bits: bits, batch: batch, eta: eta, xi: xi}
	n := batch.GenTokens
	midCtx := batch.PaddedPrompt() + n/2
	oc.pre = make([][]float64, len(devs))
	oc.dec = make([][]float64, len(devs))
	oc.memBudget = make([]int64, len(devs))
	oc.commPre = make([]float64, len(devs))
	oc.commDec = make([]float64, len(devs))
	for j, d := range devs {
		oc.pre[j] = make([]float64, len(bits))
		oc.dec[j] = make([]float64, len(bits))
		for bi, b := range bits {
			oc.pre[j][bi] = costs.latency(d.Group.Prefill(spec, eta, batch.ChunkLen, b))
			oc.dec[j][bi] = costs.latency(d.Group.Decode(spec, xi, midCtx, b, bitKV))
		}
		oc.memBudget[j] = d.UsableMemory() - spec.StageOverheadBytes(eta, batch.ChunkLen, j == 0)
		if j < len(devs)-1 {
			bw := clu.LinkBandwidth(&devs[j], &devs[j+1])
			oc.commPre[j] = float64(spec.ActivationTransferBytes(eta, batch.ChunkLen)) / bw
			oc.commDec[j] = float64(spec.ActivationTransferBytes(xi, 1)) / bw
		}
	}
	oc.memLayer = make([]int64, len(bits))
	kv := batch.KVBytesPerLayer(spec, bitKV)
	for bi, b := range bits {
		oc.memLayer[bi] = spec.LayerBytes(b, kv)
	}
	oc.muPre = ceilDiv(batch.Size, eta)
	oc.muDec = ceilDiv(batch.Size, xi)
	oc.aPre = float64(oc.muPre - 1)
	oc.aDec = float64((n-1)*oc.muDec - 1)
	if oc.aDec < 0 {
		oc.aDec = 0
	}
	master := devs[0].Group
	embed := master.Embed(spec, eta, batch.ChunkLen).Latency()
	lmStep := master.LMHead(spec, xi).Latency()
	oc.masterConst = float64(oc.muPre*batch.Chunks)*embed +
		master.LMHead(spec, batch.Size).Latency() +
		float64((n-1)*oc.muDec)*lmStep
	return oc
}

// prefillLayer returns the full-prompt prefill cost of one layer on
// device j at bit index bi (per-chunk cost × κ).
func (oc *orderingCosts) prefillLayer(j, bi int) float64 {
	return oc.pre[j][bi] * float64(oc.batch.Chunks)
}

// decodeLayer returns the per-token decode cost of one layer on device j.
func (oc *orderingCosts) decodeLayer(j, bi int) float64 { return oc.dec[j][bi] }

func ceilDiv(a, b int) int { return (a + b - 1) / b }
