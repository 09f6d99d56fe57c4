package plan

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/stats"
)

func twoStage(bitsA, bitsB []int) *Plan {
	devs := cluster.MustPreset(3).Devices()
	return &Plan{
		Model:             "opt-13b",
		PrefillMicroBatch: 4,
		DecodeMicroBatch:  8,
		BitKV:             16,
		Stages: []Stage{
			{Device: devs[0], FirstLayer: 0, Bits: bitsA},
			{Device: devs[1], FirstLayer: len(bitsA), Bits: bitsB},
		},
	}
}

func TestValidateGood(t *testing.T) {
	p := twoStage([]int{16, 8, 8}, []int{4, 4, 3})
	if err := p.Validate(6); err != nil {
		t.Fatal(err)
	}
	if p.Layers() != 6 {
		t.Fatalf("Layers = %d", p.Layers())
	}
	bits := p.Bits()
	want := []int{16, 8, 8, 4, 4, 3}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("Bits = %v", bits)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Plan)
		l    int
	}{
		{"wrong total", func(p *Plan) {}, 7},
		{"gap", func(p *Plan) { p.Stages[1].FirstLayer = 4 }, 6},
		{"empty stage", func(p *Plan) { p.Stages[1].Bits = nil }, 6},
		{"bad bits", func(p *Plan) { p.Stages[0].Bits[0] = 5 }, 6},
		{"zero eta", func(p *Plan) { p.PrefillMicroBatch = 0 }, 6},
		{"zero xi", func(p *Plan) { p.DecodeMicroBatch = 0 }, 6},
	}
	for _, c := range cases {
		p := twoStage([]int{16, 8, 8}, []int{4, 4, 3})
		c.mut(p)
		if err := p.Validate(c.l); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	empty := &Plan{PrefillMicroBatch: 1, DecodeMicroBatch: 1}
	if err := empty.Validate(0); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestStringSummary(t *testing.T) {
	p := twoStage([]int{16, 16, 8}, []int{4, 3, 3})
	s := p.String()
	for _, want := range []string{"V100", "A100", "2x16b", "1x8b", "2x3b", "η=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestStringTP2Literal pins String byte for byte on a mixed-bit plan
// over two TP2 groups: bit counts widest first, a TP suffix per stage.
func TestStringTP2Literal(t *testing.T) {
	for _, m := range cluster.MustPreset(10).Meshes() {
		if len(m) != 2 || m[0].TPDegree != 2 {
			continue
		}
		p := &Plan{Method: "heuristic", PrefillMicroBatch: 4, DecodeMicroBatch: 16, BitKV: 8, Stages: []Stage{
			{Device: m[0], FirstLayer: 0, Bits: []int{16, 8, 8, 4, 16}},
			{Device: m[1], FirstLayer: 5, Bits: []int{3, 4, 3, 8, 3, 3}},
		}}
		const want = "plan[heuristic η=4 ξ=16 | A100-40G L0-4(tp2) 2x16b 2x8b 1x4b | A100-40G L5-10(tp2) 1x8b 1x4b 4x3b]"
		if got := p.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		return
	}
	t.Fatal("preset 10 has no mesh of two TP2 groups")
}

func TestLastLayer(t *testing.T) {
	st := Stage{FirstLayer: 3, Bits: []int{8, 8}}
	if st.LastLayer() != 5 {
		t.Fatalf("LastLayer = %d", st.LastLayer())
	}
}

func TestValidateProperty(t *testing.T) {
	// Randomly generated contiguous plans always validate; perturbing
	// contiguity always fails.
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		devs := cluster.MustPreset(9).Devices()
		n := r.IntRange(2, 4)
		layers := r.IntRange(n, 24)
		p := &Plan{Model: "x", PrefillMicroBatch: 1, DecodeMicroBatch: 1, BitKV: 16}
		bitChoices := []int{3, 4, 8, 16}
		first := 0
		for j := 0; j < n; j++ {
			cnt := (layers - first) / (n - j)
			if j == n-1 {
				cnt = layers - first
			}
			if cnt < 1 {
				cnt = 1
			}
			bits := make([]int, cnt)
			for i := range bits {
				bits[i] = bitChoices[r.Intn(4)]
			}
			p.Stages = append(p.Stages, Stage{Device: devs[j%len(devs)], FirstLayer: first, Bits: bits})
			first += cnt
		}
		if first != layers {
			return true // degenerate split; skip
		}
		if p.Validate(layers) != nil {
			return false
		}
		p.Stages[len(p.Stages)-1].FirstLayer++
		return p.Validate(layers) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
