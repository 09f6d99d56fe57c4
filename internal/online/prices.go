package online

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Prices is the online tier's price book, from the pipeline simulator's
// cost model: prefill groups, KV handoffs, decode steps, and the KV
// memory a request holds against the decode pool's budget. The engine
// charges these prices and the capacity planner predicts from them, so
// the two differ only by queueing dynamics. Prices is not safe for
// concurrent use: each engine, and each analysis, builds its own.
type Prices struct {
	cfg        Config
	decodePlan *plan.Plan
	decodeClu  *cluster.Cluster
	stepper    *pipeline.DecodeStepper
	kvBudget   int64
	prefill    map[[2]int]float64
	replay     map[int]float64
}

// NewPrices defaults cfg and builds its price book. Colocated configs
// decode on the prefill plan and cluster; the decode plan must pass
// plan.Validate, since decode steps are priced from curves built for it.
func NewPrices(cfg Config) (*Prices, error) {
	c, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	p := &Prices{
		cfg:        c,
		decodePlan: c.DecodePlan,
		decodeClu:  c.DecodeCluster,
		prefill:    map[[2]int]float64{},
		replay:     map[int]float64{},
	}
	if p.decodePlan == nil {
		p.decodePlan, p.decodeClu = c.PrefillPlan, c.PrefillCluster
	}
	if err := p.decodePlan.Validate(c.Spec.Layers); err != nil {
		return nil, fmt.Errorf("online: decode plan: %w", err)
	}
	p.kvBudget = pipeline.KVBudget(p.decodePlan, c.Spec)
	p.stepper = pipeline.NewDecodeStepper(p.decodePlan, c.Spec, p.decodeClu)
	return p, nil
}

// Config returns the defaulted config the prices were built from.
func (p *Prices) Config() Config { return p.cfg }

// Disaggregated reports whether a separate pool decodes.
func (p *Prices) Disaggregated() bool { return p.cfg.DecodePlan != nil }

// ChunkCount is the number of chunkLen-token prefill chunks a prompt
// of promptLen tokens takes, at least one.
func ChunkCount(promptLen, chunkLen int) int {
	return max((promptLen+chunkLen-1)/chunkLen, 1)
}

// Chunks is ChunkCount at the config's chunk length.
func (p *Prices) Chunks(promptLen int) int { return ChunkCount(promptLen, p.cfg.ChunkLen) }

// Prefill returns the latency of one prefill group of size requests
// whose longest prompt takes chunks chunks, priced once per (size,
// chunks): prompt processing plus the first sampled token.
func (p *Prices) Prefill(size, chunks int) (float64, error) {
	key := [2]int{size, chunks}
	if v, ok := p.prefill[key]; ok {
		return v, nil
	}
	b := workload.Batch{Size: size, ChunkLen: p.cfg.ChunkLen, Chunks: chunks, GenTokens: 1, ReserveTokens: 1}
	res, err := pipeline.Simulate(p.cfg.PrefillPlan, p.cfg.Spec, p.cfg.PrefillCluster, b)
	if err != nil {
		return 0, err
	}
	p.prefill[key] = res.TotalSeconds
	return res.TotalSeconds, nil
}

// Handoff prices migrating a finished prefill to the decode pool and
// returns the delay and the mode: "transfer" ships the prompt's raw KV
// bytes over the HandoffBW fabric, "replay" re-prefills the token log
// on the decode pool (priced once per chunk count, at the first
// request's reserve), whichever is cheaper. With neither available the
// request migrates instantly.
func (p *Prices) Handoff(promptLen, maxTokens int) (float64, string) {
	chunks := p.Chunks(promptLen)
	rep, ok := p.replay[chunks]
	if !ok {
		b := workload.Batch{Size: 1, ChunkLen: p.cfg.ChunkLen, Chunks: chunks, GenTokens: 1, ReserveTokens: maxTokens}
		if res, err := pipeline.Simulate(p.decodePlan, p.cfg.Spec, p.decodeClu, b); err == nil {
			rep, ok = res.TotalSeconds, true
			p.replay[chunks] = rep
		}
	}
	if p.cfg.HandoffBW > 0 {
		bytes := pipeline.RequestKVBytes(p.cfg.PrefillPlan, p.cfg.Spec, promptLen, 0) * int64(p.cfg.Spec.Layers)
		if transfer := float64(bytes) / p.cfg.HandoffBW; !ok || transfer <= rep {
			return transfer, "transfer"
		}
	}
	return rep, "replay"
}

// KVBudget returns the decode pool's per-layer KV byte budget.
func (p *Prices) KVBudget() int64 { return p.kvBudget }

// RequestKV returns one request's per-layer KV footprint on the decode
// pool: its prompt plus a reserve of maxTokens generated tokens.
func (p *Prices) RequestKV(promptLen, maxTokens int) int64 {
	return pipeline.RequestKVBytes(p.decodePlan, p.cfg.Spec, promptLen, maxTokens)
}

// DecodeStep returns the latency of one decode step of a batch of v
// requests whose longest context is ctx tokens.
func (p *Prices) DecodeStep(v, ctx int) float64 { return p.stepper.Latency(v, ctx) }
