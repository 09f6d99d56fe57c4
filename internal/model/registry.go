package model

import (
	"errors"
	"fmt"
	"sort"
)

// ErrUnknownModel means Lookup was asked for a name outside the built-in
// architecture registry. Returned wrapped with the name and the known
// list; test with errors.Is.
var ErrUnknownModel = errors.New("unknown model architecture")

// registry holds the built-in architectures, keyed by canonical name.
var registry = map[string]*Spec{}

func register(s *Spec) *Spec {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[s.Name]; dup {
		panic("model: duplicate registration " + s.Name)
	}
	registry[s.Name] = s
	return s
}

// Built-in architectures, with dimensions from the public model cards.
var (
	OPT1B3 = register(&Spec{Name: "opt-1.3b", Layers: 24, Hidden: 2048, FFN: 8192, Heads: 32,
		Vocab: 50272, MaxPos: 2048, EmbedDim: 2048, LearnedPositions: true})
	OPT13B = register(&Spec{Name: "opt-13b", Layers: 40, Hidden: 5120, FFN: 20480, Heads: 40,
		Vocab: 50272, MaxPos: 2048, EmbedDim: 5120, LearnedPositions: true})
	OPT30B = register(&Spec{Name: "opt-30b", Layers: 48, Hidden: 7168, FFN: 28672, Heads: 56,
		Vocab: 50272, MaxPos: 2048, EmbedDim: 7168, LearnedPositions: true})
	OPT66B = register(&Spec{Name: "opt-66b", Layers: 64, Hidden: 9216, FFN: 36864, Heads: 72,
		Vocab: 50272, MaxPos: 2048, EmbedDim: 9216, LearnedPositions: true})
	OPT175B = register(&Spec{Name: "opt-175b", Layers: 96, Hidden: 12288, FFN: 49152, Heads: 96,
		Vocab: 50272, MaxPos: 2048, EmbedDim: 12288, LearnedPositions: true})

	BLOOM560M = register(&Spec{Name: "bloom-560m", Layers: 24, Hidden: 1024, FFN: 4096, Heads: 16,
		Vocab: 250880, MaxPos: 2048, EmbedDim: 1024, LearnedPositions: true})
	BLOOM1B7 = register(&Spec{Name: "bloom-1b7", Layers: 24, Hidden: 2048, FFN: 8192, Heads: 16,
		Vocab: 250880, MaxPos: 2048, EmbedDim: 2048, LearnedPositions: true})
	BLOOM3B = register(&Spec{Name: "bloom-3b", Layers: 30, Hidden: 2560, FFN: 10240, Heads: 32,
		Vocab: 250880, MaxPos: 2048, EmbedDim: 2560, LearnedPositions: true})

	Qwen7B = register(&Spec{Name: "qwen2.5-7b", Layers: 28, Hidden: 3584, FFN: 18944, Heads: 28, KVHeads: 4,
		Vocab: 152064, MaxPos: 32768, EmbedDim: 3584, GatedMLP: true})
	Qwen14B = register(&Spec{Name: "qwen2.5-14b", Layers: 48, Hidden: 5120, FFN: 13824, Heads: 40, KVHeads: 8,
		Vocab: 152064, MaxPos: 32768, EmbedDim: 5120, GatedMLP: true})
	Qwen32B = register(&Spec{Name: "qwen2.5-32b", Layers: 64, Hidden: 5120, FFN: 27648, Heads: 40, KVHeads: 8,
		Vocab: 152064, MaxPos: 32768, EmbedDim: 5120, GatedMLP: true})

	Llama70B = register(&Spec{Name: "llama3.3-70b", Layers: 80, Hidden: 8192, FFN: 28672, Heads: 64, KVHeads: 8,
		Vocab: 128256, MaxPos: 131072, EmbedDim: 8192, GatedMLP: true})
)

// Lookup returns the built-in architecture with the given name.
func Lookup(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("model: %w %q (known: %v)", ErrUnknownModel, name, Names())
	}
	return s, nil
}

// Names returns the sorted list of registered architecture names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LayerProfile summarizes the weight and activation statistics of one
// decoder layer at a given depth, used to evaluate the variance indicator
// for architectures too large to materialize. The profile encodes the
// empirical regularity behind Table I: activation magnitude — and hence
// quantization sensitivity — grows with depth in decoder-only LLMs.
type LayerProfile struct {
	// DW is the number of linear-operator weights in the layer.
	DW int64
	// WMin, WMax bound the layer's weight values.
	WMin, WMax float64
	// MeanX, VarX are elementwise input-activation moments.
	MeanX, VarX float64
}

// Profile returns the synthetic calibration profile for layer i of the
// model. The absolute numbers are synthetic (we do not ship checkpoints);
// the depth trend is what SplitQuant's experiments depend on.
func (s *Spec) Profile(i int) LayerProfile {
	if i < 0 || i >= s.Layers {
		panic(fmt.Sprintf("model %s: Profile(%d) of %d layers", s.Name, i, s.Layers))
	}
	depth := float64(i) / float64(s.Layers)
	// Weight range mildly widens with depth; activations grow markedly.
	wAbs := 0.05 * (1 + float64(0.3*depth))
	return LayerProfile{
		DW:    s.DecoderLayerParams(),
		WMin:  -wAbs,
		WMax:  wAbs,
		MeanX: 0.02 * depth,
		VarX:  1.0 + float64(3.0*depth),
	}
}
