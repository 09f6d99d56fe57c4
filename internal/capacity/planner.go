package capacity

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/quant"
	"repro/internal/workload"
)

// DefaultDeviceCost is the per-class fleet cost rate (relative $/hour,
// shaped like public cloud on-demand pricing). The planner minimizes
// total fleet cost, so only the ratios matter.
var DefaultDeviceCost = map[gpu.DeviceClass]float64{
	gpu.T4:      0.35,
	gpu.P100:    0.60,
	gpu.V100:    1.20,
	gpu.A100:    2.50,
	gpu.A100x80: 3.20,
}

// FleetSpec is a per-class device count vector.
type FleetSpec map[gpu.DeviceClass]int

// Cost prices the fleet at DefaultDeviceCost.
func (f FleetSpec) Cost() float64 {
	total := 0.0
	for class, n := range f {
		total += DefaultDeviceCost[class] * float64(n)
	}
	return total
}

// Devices is the total device count.
func (f FleetSpec) Devices() int {
	t := 0
	for _, n := range f {
		t += n
	}
	return t
}

// String renders the fleet as "2xV100-32G + 1xA100-40G" in class order.
func (f FleetSpec) String() string {
	classes := make([]gpu.DeviceClass, 0, len(f))
	for c := range f {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	s := ""
	for _, c := range classes {
		if f[c] == 0 {
			continue
		}
		if s != "" {
			s += " + "
		}
		s += fmt.Sprintf("%dx%s", f[c], c)
	}
	if s == "" {
		return "(empty)"
	}
	return s
}

// Cluster materializes the fleet as one NVLink node per class joined by
// the given fabric.
func (f FleetSpec) Cluster(name string, interBW float64) *cluster.Cluster {
	classes := make([]gpu.DeviceClass, 0, len(f))
	for c := range f {
		if f[c] > 0 {
			classes = append(classes, c)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	c := &cluster.Cluster{Name: name, InterBW: interBW}
	for i, class := range classes {
		c.Nodes = append(c.Nodes, cluster.Node{
			Name:    fmt.Sprintf("n%d", i),
			Class:   class,
			Count:   f[class],
			IntraBW: cluster.NVLinkBW,
		})
	}
	return c
}

// PlanInput parameterizes the fleet search.
type PlanInput struct {
	// Spec is the served model.
	Spec *model.Spec
	// Profile is the request workload the fleet must absorb.
	Profile *workload.Profile
	// Rate is the design arrival rate, requests/second (size for the
	// peak of the traffic you expect, not the mean).
	Rate float64
	// SLO are the targets a feasible fleet must meet at Rate.
	SLO SLO
	// Classes are the device classes the fleet may buy (default V100 +
	// A100); MaxPerClass caps each class's count (default 4).
	Classes     []gpu.DeviceClass
	MaxPerClass int
}

// The fleet search plans every candidate over core.CandidateBits with a
// planTimeLimit search each, prices fleets at DefaultDeviceCost, joins
// a fleet's nodes by an 800 Gb/s Ethernet fabric, and sizes KV for
// batches of planBatch requests in planChunkLen-token prefill chunks.
// The engine configuration it recommends sets the chunk length and the
// admission threshold and leaves every other limit at the online
// engine's default.
const (
	planChunkLen  = 256
	planBatch     = 16
	planTimeLimit = 10 * time.Second
)

func (in PlanInput) withDefaults() PlanInput {
	if len(in.Classes) == 0 {
		in.Classes = []gpu.DeviceClass{gpu.V100, gpu.A100}
	}
	if in.MaxPerClass <= 0 {
		in.MaxPerClass = 4
	}
	in.SLO = in.SLO.withDefaults()
	return in
}

// Recommendation is the planner's output: the cheapest fleet that meets
// the SLO at the design rate, with the phase plans, the analytic
// prediction, and the derived serving limits.
type Recommendation struct {
	Fleet       FleetSpec
	CostPerHour float64
	Cluster     *cluster.Cluster
	Disagg      *core.DisaggregatedPlan
	Analysis    *Analysis
	// Config is a ready-to-run engine configuration for the fleet,
	// including the derived concurrency limit and admission threshold.
	Config online.Config
	// DecodeConcurrency is the decode pool's concurrency limit (KV
	// budget over mean footprint, capped by MaxBatch).
	DecodeConcurrency int
	// AdmissionThreshold is the queue capacity beyond which admission
	// control should shed load: the queue length whose drain time
	// already busts the wait SLO.
	AdmissionThreshold int
	// CandidatesTried counts fleet compositions evaluated (planned or
	// pruned after planning); CandidatesPruned counts those skipped by
	// the memory lower bound.
	CandidatesTried  int
	CandidatesPruned int
}

// ErrNoFeasibleFleet is returned when no candidate fleet meets the SLO.
var ErrNoFeasibleFleet = errors.New("capacity: no candidate fleet meets the SLO")

// PlanFleet searches per-class device-count vectors cheapest-first for
// the least-cost fleet whose disaggregated deployment meets the SLO at
// the design rate. Each candidate is phase-planned with
// core.PlanDisaggregated and evaluated analytically with Analyze;
// candidates whose total memory cannot hold the model's weights at the
// smallest bitwidth are pruned without planning. Because candidates are
// visited in cost order, the first feasible one is the minimum-cost
// fleet over the search space.
func PlanFleet(ctx context.Context, in PlanInput) (*Recommendation, error) {
	in = in.withDefaults()
	if in.Spec == nil {
		return nil, fmt.Errorf("capacity: PlanInput needs a model spec")
	}
	if in.Profile == nil || len(in.Profile.Requests) == 0 {
		return nil, fmt.Errorf("capacity: PlanInput needs a non-empty workload profile")
	}
	if in.Rate <= 0 {
		return nil, fmt.Errorf("capacity: design rate %v", in.Rate)
	}
	ind := core.ProfileIndicator(in.Spec, core.CandidateBits, quant.Deterministic)

	// The per-batch shape the phase planner sizes KV for.
	batch, err := workload.Synthesize(in.Profile, planBatch, planChunkLen, in.Spec.MaxPos)
	if err != nil {
		return nil, err
	}

	candidates := enumerateFleets(in.Classes, in.MaxPerClass)
	sort.SliceStable(candidates, func(i, j int) bool {
		ci, cj := candidates[i].Cost(), candidates[j].Cost()
		if ci != cj {
			return ci < cj
		}
		return candidates[i].Devices() < candidates[j].Devices()
	})

	// Memory lower bound: the fleet must at least hold the weights at
	// the smallest bitwidth plus the embedding table.
	minWeights := in.Spec.LayerWeightBytes(slices.Min(core.CandidateBits))*int64(in.Spec.Layers) + in.Spec.EmbeddingBytes()

	rec := &Recommendation{}
	var lastErr error
	for _, fs := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if fs.Devices() < 2 {
			continue // a disaggregated deployment needs two pools
		}
		clu := fs.Cluster(fmt.Sprintf("fleet-%s", fs), cluster.Eth800BW)
		var mem int64
		for _, d := range clu.Devices() {
			mem += d.UsableMemory()
		}
		if mem < minWeights {
			rec.CandidatesPruned++
			continue
		}
		rec.CandidatesTried++
		dp, err := core.PlanDisaggregated(ctx, in.Spec, clu, ind,
			core.Options{Bits: core.CandidateBits, TimeLimit: planTimeLimit}, batch)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				lastErr = err
				continue
			}
			return nil, err
		}
		cfg := online.Config{
			Spec:           in.Spec,
			PrefillPlan:    dp.Prefill,
			PrefillCluster: dp.PrefillCluster,
			DecodePlan:     dp.Decode,
			DecodeCluster:  dp.DecodeCluster,
			ChunkLen:       planChunkLen,
		}
		a, err := Analyze(cfg, in.Profile, in.Rate, in.SLO)
		if err != nil {
			lastErr = err
			continue
		}
		if !a.SLOk() {
			lastErr = fmt.Errorf("capacity: fleet %s at rate %.2f: %v", fs, in.Rate, a.Violations)
			continue
		}
		rec.Fleet = fs
		rec.CostPerHour = fs.Cost()
		rec.Cluster = clu
		rec.Disagg = dp
		rec.Analysis = a
		rec.DecodeConcurrency = a.Decode.Cap
		rec.AdmissionThreshold = admissionThreshold(a, in.SLO)
		cfg.QueueCapacity = rec.AdmissionThreshold
		rec.Config = cfg
		return rec, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w (last candidate: %v)", ErrNoFeasibleFleet, lastErr)
	}
	return nil, ErrNoFeasibleFleet
}

// admissionThreshold derives the queue capacity from the wait SLO: a
// backlog of k full prefill groups drains in k·E[T(B)] seconds, so cap
// the queue where the predicted drain time busts the wait target (with
// a 2× safety factor for burst absorption). Without a wait target the
// engine default stands.
func admissionThreshold(a *Analysis, slo SLO) int {
	target := slo.QueueWaitP95
	if target <= 0 || a.Prefill.MeanServiceB <= 0 {
		return 256
	}
	groups := 2 * target / a.Prefill.MeanServiceB
	q := int(math.Ceil(groups)) * a.Prefill.B
	if q < 2*a.Prefill.B {
		q = 2 * a.Prefill.B
	}
	if q > 4096 {
		q = 4096
	}
	return q
}

// enumerateFleets lists every count vector with 0..maxPer devices per
// class (minus the empty fleet).
func enumerateFleets(classes []gpu.DeviceClass, maxPer int) []FleetSpec {
	var out []FleetSpec
	var walk func(i int, cur FleetSpec)
	walk = func(i int, cur FleetSpec) {
		if i == len(classes) {
			if cur.Devices() > 0 {
				cp := FleetSpec{}
				for k, v := range cur {
					if v > 0 {
						cp[k] = v
					}
				}
				out = append(out, cp)
			}
			return
		}
		for n := 0; n <= maxPer; n++ {
			cur[classes[i]] = n
			walk(i+1, cur)
		}
		delete(cur, classes[i])
	}
	walk(0, FleetSpec{})
	return out
}
