// Package plan defines the deployment-plan types shared between the
// optimizer (internal/core) and the runtime (internal/pipeline): which
// contiguous layer range runs on which device at which per-layer
// quantization bitwidths, and the micro-batch sizes of the two phases.
package plan

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
)

// Stage is one pipeline stage: a device (possibly a TP group) holding a
// contiguous run of decoder layers with per-layer bitwidths.
type Stage struct {
	// Device executes the stage.
	Device cluster.Device
	// FirstLayer is the index of the stage's first decoder layer.
	FirstLayer int
	// Bits holds one bitwidth per layer in the stage, in layer order.
	Bits []int
}

// LastLayer returns the index one past the stage's final layer.
func (s *Stage) LastLayer() int { return s.FirstLayer + len(s.Bits) }

// Plan is a complete deployment decision.
type Plan struct {
	// Model names the architecture the plan serves.
	Model string
	// Stages lists pipeline stages in order; stage 1 hosts the embedding
	// and LM head (master engine).
	Stages []Stage
	// PrefillMicroBatch (η) and DecodeMicroBatch (ξ) size the micro-
	// batches of the two phases.
	PrefillMicroBatch int
	DecodeMicroBatch  int
	// BitKV is the KV-cache bitwidth.
	BitKV int
	// QualityPenalty is Σ z·ω, the indicated quality degradation.
	QualityPenalty float64
	// Objective is the optimizer's objective value (Eq. 4).
	Objective float64
	// Method records how the plan was produced ("ilp", "heuristic",
	// "uniform", "het", "adabits").
	Method string
	// SolveSeconds is the optimizer wall-clock time.
	SolveSeconds float64
}

// Layers returns the total layer count covered by the plan.
func (p *Plan) Layers() int {
	n := 0
	for _, s := range p.Stages {
		n += len(s.Bits)
	}
	return n
}

// Bits returns the flattened per-layer bitwidth vector.
func (p *Plan) Bits() []int {
	out := make([]int, 0, p.Layers())
	for _, s := range p.Stages {
		out = append(out, s.Bits...)
	}
	return out
}

// Validate checks that the plan covers exactly layers layers
// contiguously, every stage is non-empty, and micro-batch sizes are
// positive.
func (p *Plan) Validate(layers int) error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("plan: no stages")
	}
	if p.PrefillMicroBatch <= 0 || p.DecodeMicroBatch <= 0 {
		return fmt.Errorf("plan: non-positive micro-batch sizes (η=%d, ξ=%d)",
			p.PrefillMicroBatch, p.DecodeMicroBatch)
	}
	next := 0
	for i, s := range p.Stages {
		if len(s.Bits) == 0 {
			return fmt.Errorf("plan: stage %d is empty", i)
		}
		if s.Device.Spec == nil {
			// A deserialized plan carries device identity only; it must be
			// rebound to a live cluster before it can be executed.
			return fmt.Errorf("plan: stage %d device %s is unbound (deserialized plan — call Bind first)", i, s.Device.ID)
		}
		if s.FirstLayer != next {
			return fmt.Errorf("plan: stage %d starts at layer %d, want %d", i, s.FirstLayer, next)
		}
		for _, b := range s.Bits {
			switch b {
			case 3, 4, 8, 16:
			default:
				return fmt.Errorf("plan: stage %d has unsupported bitwidth %d", i, b)
			}
		}
		next = s.LastLayer()
	}
	if next != layers {
		return fmt.Errorf("plan: covers %d layers, want %d", next, layers)
	}
	return nil
}

// String renders a compact human-readable plan summary.
func (p *Plan) String() string {
	b := make([]byte, 0, 64+48*len(p.Stages))
	b = append(b, "plan["...)
	b = append(b, p.Method...)
	b = append(b, " η="...)
	b = strconv.AppendInt(b, int64(p.PrefillMicroBatch), 10)
	b = append(b, " ξ="...)
	b = strconv.AppendInt(b, int64(p.DecodeMicroBatch), 10)
	for _, s := range p.Stages {
		var counts [17]int // by bitwidth; Validate admits 3, 4, 8 and 16
		for _, bit := range s.Bits {
			if uint(bit) < uint(len(counts)) {
				counts[bit]++
			}
		}
		b = append(b, " | "...)
		b = append(b, s.Device.Spec.Class...)
		b = append(b, " L"...)
		b = strconv.AppendInt(b, int64(s.FirstLayer), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(s.LastLayer()-1), 10)
		if s.Device.TPDegree > 1 {
			b = append(b, "(tp"...)
			b = strconv.AppendInt(b, int64(s.Device.TPDegree), 10)
			b = append(b, ')')
		}
		for _, bit := range [...]int{16, 8, 4, 3} {
			if counts[bit] > 0 {
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(counts[bit]), 10)
				b = append(b, 'x')
				b = strconv.AppendInt(b, int64(bit), 10)
				b = append(b, 'b')
			}
		}
	}
	b = append(b, ']')
	return string(b)
}
