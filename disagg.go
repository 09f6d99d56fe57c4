// Public API for disaggregated (phase-split) planning: one call carves
// the cluster into a prefill pool and a decode pool and returns a
// Deployment per phase. The online tier (internal/online) drives these
// two plans with continuous batching and migrates requests between them
// by KV-cache handoff; offline callers can Measure each phase plan
// independently.
package splitquant

import (
	"context"

	"repro/internal/core"
)

// DisaggregatedDeployment is a pair of phase deployments over disjoint
// pools of the System's cluster: Prefill on the compute-rich classes at
// high precision, Decode on the memory-bound classes with low-bit
// weights and a quantized KV cache.
type DisaggregatedDeployment struct {
	// Prefill runs prompts and first tokens; its batch shape reserves a
	// single generated token because sessions hand off immediately.
	Prefill *Deployment
	// Decode runs the generation phase for the full batch.
	Decode *Deployment
}

// PlanDisaggregated partitions the System's cluster into prefill and
// decode pools (see core.PhaseSplits) and plans each phase with its own
// objective: prefill-only latency at ≥ 8-bit weights for the prefill
// pool, decode-only latency at ≤ 8-bit weights and 8-bit KV for the
// decode pool. Trailing PlanOptions override the System defaults for
// both phases.
func (s *System) PlanDisaggregated(w Workload, batchSize int, opts ...PlanOption) (*DisaggregatedDeployment, error) {
	return s.PlanDisaggregatedContext(context.Background(), w, batchSize, opts...)
}

// PlanDisaggregatedContext is PlanDisaggregated with cooperative
// cancellation.
func (s *System) PlanDisaggregatedContext(ctx context.Context, w Workload, batchSize int, opts ...PlanOption) (*DisaggregatedDeployment, error) {
	batch, err := s.synthesize(w, batchSize)
	if err != nil {
		return nil, err
	}
	o, err := s.resolve(opts)
	if err != nil {
		return nil, err
	}
	dp, err := core.PlanDisaggregated(ctx, s.spec, s.clu, s.ind, s.coreOptions(o), batch)
	if err != nil {
		return nil, err
	}
	// Each phase Deployment binds to its own pool cluster so Measure
	// simulates on the devices the phase actually occupies.
	preSys := &System{spec: s.spec, clu: dp.PrefillCluster, opts: o, ind: s.ind, plans: s.plans}
	decSys := &System{spec: s.spec, clu: dp.DecodeCluster, opts: o, ind: s.ind, plans: s.plans}
	preBatch := batch
	preBatch.GenTokens = 1
	preBatch.ReserveTokens = 1
	return &DisaggregatedDeployment{
		Prefill: &Deployment{sys: preSys, plan: dp.Prefill, batch: preBatch, report: dp.PrefillReport},
		Decode:  &Deployment{sys: decSys, plan: dp.Decode, batch: batch, report: dp.DecodeReport},
	}, nil
}
