package plan

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
)

// stageJSON is the serialized form of one Stage. Devices are recorded by
// identity (ID, node, class, TP degree) rather than by embedding the full
// performance model: a deserialized plan is rebound to a live cluster
// with Bind, which guarantees the plan executes against the cluster's
// actual (possibly derated) device specs instead of stale copies.
type stageJSON struct {
	Device     string `json:"device"`
	Node       string `json:"node"`
	Class      string `json:"class"`
	TPDegree   int    `json:"tp_degree"`
	FirstLayer int    `json:"first_layer"`
	Bits       []int  `json:"bits"`
}

// planJSON is the serialized form of Plan.
type planJSON struct {
	Model             string      `json:"model"`
	Stages            []stageJSON `json:"stages"`
	PrefillMicroBatch int         `json:"prefill_microbatch"`
	DecodeMicroBatch  int         `json:"decode_microbatch"`
	BitKV             int         `json:"kv_bits"`
	QualityPenalty    float64     `json:"quality_penalty"`
	Objective         float64     `json:"objective"`
	Method            string      `json:"method"`
	SolveSeconds      float64     `json:"solve_seconds"`
}

// MarshalJSON serializes the plan. The encoding is deterministic for a
// given plan, so serialized plans are usable as golden files and cache
// values.
func (p *Plan) MarshalJSON() ([]byte, error) {
	out := planJSON{
		Model:             p.Model,
		PrefillMicroBatch: p.PrefillMicroBatch,
		DecodeMicroBatch:  p.DecodeMicroBatch,
		BitKV:             p.BitKV,
		QualityPenalty:    p.QualityPenalty,
		Objective:         p.Objective,
		Method:            p.Method,
		SolveSeconds:      p.SolveSeconds,
	}
	for _, s := range p.Stages {
		out.Stages = append(out.Stages, stageJSON{
			Device:     s.Device.ID,
			Node:       s.Device.Node,
			Class:      string(s.Device.Spec.Class),
			TPDegree:   s.Device.TPDegree,
			FirstLayer: s.FirstLayer,
			Bits:       s.Bits,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON deserializes a plan. The stage devices carry only their
// identity afterwards (no performance model); call Bind against a live
// cluster before simulating or validating the plan.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*p = Plan{
		Model:             in.Model,
		PrefillMicroBatch: in.PrefillMicroBatch,
		DecodeMicroBatch:  in.DecodeMicroBatch,
		BitKV:             in.BitKV,
		QualityPenalty:    in.QualityPenalty,
		Objective:         in.Objective,
		Method:            in.Method,
		SolveSeconds:      in.SolveSeconds,
	}
	for _, s := range in.Stages {
		p.Stages = append(p.Stages, Stage{
			Device: cluster.Device{
				ID:       s.Device,
				Node:     s.Node,
				TPDegree: s.TPDegree,
			},
			FirstLayer: s.FirstLayer,
			Bits:       s.Bits,
		})
	}
	return nil
}

// Bind resolves the plan's stage devices against a live cluster,
// restoring the device performance models (and TP group aggregates) a
// serialized plan cannot carry. It fails when a stage names a device the
// cluster does not expose in any of its meshes or among its Devices (the
// single GPUs a uniform plan runs on) — e.g. a plan cached for a
// different cluster.
func (p *Plan) Bind(clu *cluster.Cluster) error {
	byID := map[string]cluster.Device{}
	for _, mesh := range clu.Meshes() {
		for _, d := range mesh {
			byID[d.ID] = d
		}
	}
	for _, d := range clu.Devices() {
		byID[d.ID] = d
	}
	for i := range p.Stages {
		want := p.Stages[i].Device
		d, ok := byID[want.ID]
		if !ok {
			return fmt.Errorf("plan: stage %d device %q not present in cluster %s", i, want.ID, clu.Name)
		}
		if want.TPDegree != 0 && d.TPDegree != want.TPDegree {
			return fmt.Errorf("plan: stage %d device %q TP degree %d, cluster has %d",
				i, want.ID, want.TPDegree, d.TPDegree)
		}
		p.Stages[i].Device = d
	}
	return nil
}
