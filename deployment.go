package splitquant

import (
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Deployment is a planned execution: layer partition, per-layer
// bitwidths, and micro-batch sizes for one batch shape.
type Deployment struct {
	sys    *System
	plan   *plan.Plan
	batch  workload.Batch
	report *core.Report
	// reused marks a deployment answered from the plan cache instead of
	// a fresh solve.
	reused bool
}

// StageInfo summarizes one pipeline stage for callers.
type StageInfo struct {
	// Device is the executing device (or TP group) id.
	Device string `json:"device"`
	// GPU is the device class.
	GPU string `json:"gpu"`
	// TPDegree is the tensor-parallel width (1 = single GPU).
	TPDegree int `json:"tp_degree"`
	// FirstLayer and LayerCount delimit the contiguous layer range.
	FirstLayer int `json:"first_layer"`
	LayerCount int `json:"layer_count"`
	// Bits lists the per-layer quantization bitwidths.
	Bits []int `json:"bits"`
}

// Stages returns the pipeline stages in order.
func (d *Deployment) Stages() []StageInfo {
	out := make([]StageInfo, len(d.plan.Stages))
	for i, st := range d.plan.Stages {
		out[i] = StageInfo{
			Device:     st.Device.ID,
			GPU:        string(st.Device.Spec.Class),
			TPDegree:   st.Device.TPDegree,
			FirstLayer: st.FirstLayer,
			LayerCount: len(st.Bits),
			Bits:       append([]int(nil), st.Bits...),
		}
	}
	return out
}

// Bits returns the flattened per-layer bitwidth vector.
func (d *Deployment) Bits() []int { return d.plan.Bits() }

// MicroBatches returns the prefill and decode micro-batch sizes (η, ξ).
func (d *Deployment) MicroBatches() (prefill, decode int) {
	return d.plan.PrefillMicroBatch, d.plan.DecodeMicroBatch
}

// QualityPenalty returns the planner's indicated quality degradation Σω
// (0 = pure FP16).
func (d *Deployment) QualityPenalty() float64 { return d.plan.QualityPenalty }

// PlanningSeconds returns the planner wall-clock time.
func (d *Deployment) PlanningSeconds() float64 { return d.plan.SolveSeconds }

// PlanStats summarizes the solver work behind a deployment.
type PlanStats struct {
	// Configs is the number of candidate configurations evaluated.
	// Configs + PrunedConfigs is the size of the enumeration, and a
	// completed search has len(ConfigStats) == Configs + PrunedConfigs +
	// ILPSolves.
	Configs int
	// ILPSolves and Nodes count branch-and-bound work.
	ILPSolves int
	Nodes     int
	// SolveSeconds is total planning wall-clock time.
	SolveSeconds float64
	// Proved reports whether the winning configuration's ILP proved
	// optimality.
	Proved bool
	// Cancelled reports that planning was cut short by context
	// cancellation and the deployment is the best incumbent found, not
	// the full search result.
	Cancelled bool
	// PrunedConfigs counts configurations the search skipped because
	// their bound proved they could not enter the shortlist.
	// Configs + PrunedConfigs equals the enumeration.
	PrunedConfigs int
	// LowerBound is a lower bound on the planning objective of every
	// plan of the enumeration, pruned configurations included, and Gap
	// is the certified gap (objective − LowerBound)/objective: no plan
	// of the enumeration is better than this one by more than Gap of its
	// objective. Gap is +Inf when planning was cancelled before every
	// bound was built.
	LowerBound, Gap float64
	// CostCacheHits and CostCacheMisses count per-device cost
	// evaluations served by (respectively computed into) the System's
	// shared cost cache during this solve.
	CostCacheHits   int64
	CostCacheMisses int64
	// Reused reports that no search ran at all: the Fork family's plan
	// cache answered. The remaining fields then report the original
	// solve's counts and times; ConfigStats is empty, since a stored
	// report keeps no per-configuration stats.
	Reused bool
	// ConfigStats holds per-configuration solver statistics in canonical
	// enumeration order.
	ConfigStats []ConfigStat
}

// Stats returns the solver statistics of the planning run that produced
// this deployment.
func (d *Deployment) Stats() PlanStats {
	st := PlanStats{
		Configs:         d.report.Configs,
		ILPSolves:       d.report.ILPSolves,
		Nodes:           d.report.Nodes,
		SolveSeconds:    d.report.SolveSeconds,
		Proved:          d.report.Proved,
		Cancelled:       d.report.Cancelled,
		PrunedConfigs:   d.report.PrunedConfigs,
		LowerBound:      d.report.LowerBound,
		Gap:             (d.plan.Objective - d.report.LowerBound) / d.plan.Objective,
		CostCacheHits:   d.report.CostCacheHits,
		CostCacheMisses: d.report.CostCacheMisses,
		Reused:          d.reused,
	}
	for _, c := range d.report.ConfigStats {
		st.ConfigStats = append(st.ConfigStats, ConfigStat(c))
	}
	return st
}

// Method returns the algorithm that produced the plan.
func (d *Deployment) Method() string { return d.plan.Method }

// String renders a compact plan summary.
func (d *Deployment) String() string { return d.plan.String() }

// Metrics is a measured batch execution.
type Metrics struct {
	// Throughput is output tokens per second.
	Throughput float64 `json:"throughput_tps"`
	// PrefillSeconds, DecodeSeconds and TotalSeconds decompose the batch
	// latency.
	PrefillSeconds float64 `json:"prefill_seconds"`
	DecodeSeconds  float64 `json:"decode_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`
	// OutputTokens is the number of generated tokens in the batch.
	OutputTokens int `json:"output_tokens"`
	// StageMemoryGiB is the accounted memory per stage.
	StageMemoryGiB []float64 `json:"stage_memory_gib"`
	// StageUtilization is each stage's busy-time fraction.
	StageUtilization []float64 `json:"stage_utilization"`
	// TTFT is the time to first token; TBT the mean time between tokens.
	TTFT float64 `json:"ttft_seconds"`
	TBT  float64 `json:"tbt_seconds"`
	// BubbleFraction is the share of stage-seconds lost to pipeline
	// bubbles and imbalance.
	BubbleFraction float64 `json:"bubble_fraction"`
}

// Measure executes the deployment's batch on the discrete-event pipeline
// simulator and returns the measured metrics. It fails with an OOM error
// when a stage does not fit its device.
func (d *Deployment) Measure() (*Metrics, error) {
	res, err := pipeline.Simulate(d.plan, d.sys.spec, d.sys.clu, d.batch)
	if err != nil {
		return nil, err
	}
	m := &Metrics{
		Throughput:       res.Throughput,
		PrefillSeconds:   res.PrefillSeconds,
		DecodeSeconds:    res.DecodeSeconds,
		TotalSeconds:     res.TotalSeconds,
		OutputTokens:     res.OutputTokens,
		StageUtilization: res.Utilization(),
		BubbleFraction:   res.BubbleFraction,
		TTFT:             res.TTFT,
		TBT:              res.TBT,
	}
	for _, b := range res.StageMemory {
		m.StageMemoryGiB = append(m.StageMemoryGiB, float64(b)/(1<<30))
	}
	return m, nil
}

// deploymentJSON is the serialized form.
type deploymentJSON struct {
	Model             string      `json:"model"`
	Cluster           string      `json:"cluster"`
	Method            string      `json:"method"`
	PrefillMicroBatch int         `json:"prefill_microbatch"`
	DecodeMicroBatch  int         `json:"decode_microbatch"`
	KVBits            int         `json:"kv_bits"`
	QualityPenalty    float64     `json:"quality_penalty"`
	BatchSize         int         `json:"batch_size"`
	PaddedPrompt      int         `json:"padded_prompt"`
	GenTokens         int         `json:"gen_tokens"`
	Stages            []StageInfo `json:"stages"`
}

// WritePlanJSON serializes the raw deployment plan (indented) to w in
// the planner's wire format: stages keyed by device identity, per-layer
// bitwidths, micro-batch sizes, and solver metadata. Unlike WriteJSON —
// a human-oriented summary — this format round-trips: the `served`
// control plane persists exactly these bytes in its plan cache and
// rebinds them to a live cluster on reload.
func (d *Deployment) WritePlanJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d.plan)
}

// WriteJSON serializes the deployment (indented) to w.
func (d *Deployment) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(deploymentJSON{
		Model:             d.plan.Model,
		Cluster:           d.sys.clu.String(),
		Method:            d.plan.Method,
		PrefillMicroBatch: d.plan.PrefillMicroBatch,
		DecodeMicroBatch:  d.plan.DecodeMicroBatch,
		KVBits:            d.plan.BitKV,
		QualityPenalty:    d.plan.QualityPenalty,
		BatchSize:         d.batch.Size,
		PaddedPrompt:      d.batch.PaddedPrompt(),
		GenTokens:         d.batch.GenTokens,
		Stages:            d.Stages(),
	})
}
