package gpu

import (
	"math"
	"testing"

	"repro/internal/model"
)

// decodeLatencyRef is the per-call decode latency DecodeCurve replaced:
// the model's decode FLOPs and bytes, then the single-device roofline
// (g == nil) or the TP formula, evaluated from scratch. Every product
// is rounded before it is added, as amd64 evaluates the original, so the
// reference means the same on architectures that fuse multiply-adds.
func decodeLatencyRef(s *Spec, g *TPGroup, m *model.Spec, v, ctx, bit, bitKV int) float64 {
	h1, h2, kv := float64(m.Hidden), float64(m.FFN), float64(m.KVDim())
	vf := float64(v)
	mlpMatrices := 2.0
	if m.GatedMLP {
		mlpMatrices = 3
	}
	mlp := 2 * mlpMatrices * vf * h1 * h2
	flops := float64(4*vf*h1*h1) + float64(4*vf*h1*kv) + float64(4*vf*float64(ctx)*h1) + mlp
	weights := float64(float64(m.DecoderLayerParams()) * (float64(bit) / 8))
	kvBytes := float64(float64(2*v*ctx*m.KVDim()) * (float64(bitKV) / 8))
	act := float64(v*m.Hidden) * 2 * 8
	mops := weights + kvBytes + act
	if g == nil {
		ct := flops / s.FLOPSAt(bit)
		mt := mops / s.Bandwidth
		t := ct
		if mt > t {
			t = mt
		}
		return t + s.LaunchOverhead
	}
	scale, allReduce := 1.0, 0.0
	if g.Degree > 1 {
		k := float64(g.Degree)
		scale = g.Efficiency * k
		allReduce = 2 * (2 * (k - 1) / k * float64(m.ActivationTransferBytes(v, 1)) / g.LinkBandwidth)
	}
	base := flops / (g.Spec.FLOPSAt(bit) * scale)
	mem := mops / (g.Spec.Bandwidth * scale)
	t := base
	if mem > t {
		t = mem
	}
	return t + g.Spec.LaunchOverhead + allReduce
}

// FuzzDecodeCurve checks DecodeCurve.At, and DecodeLayerLatency built on
// it, against decodeLatencyRef by math.Float64bits over every registered
// model, every device class, TP degrees 1, 2, 4 and 8, weight bits
// {3, 4, 8, 16}, KV bits {4, 8, 16}, v in [1, 1024] and ctx in
// [0, 2^16].
func FuzzDecodeCurve(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(3), uint8(2), uint16(7), uint32(512))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(0), uint8(1), uint16(0), uint32(0))
	f.Add(uint8(2), uint8(3), uint8(3), uint8(1), uint8(0), uint16(1023), uint32(1<<16))
	f.Add(uint8(5), uint8(4), uint8(2), uint8(2), uint8(2), uint16(31), uint32(30000))
	f.Add(uint8(7), uint8(1), uint8(0), uint8(3), uint8(1), uint16(255), uint32(1))
	var models []*model.Spec
	for _, name := range model.Names() {
		m, err := model.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		models = append(models, m)
	}
	classes := Classes()
	f.Fuzz(func(t *testing.T, mi, ci, ti, bi, ki uint8, v16 uint16, ctx32 uint32) {
		m := models[int(mi)%len(models)]
		s := MustLookup(classes[int(ci)%len(classes)])
		degree := []int{1, 2, 4, 8}[ti%4]
		bit := []int{3, 4, 8, 16}[bi%4]
		bitKV := []int{4, 8, 16}[ki%3]
		v := 1 + int(v16)%1024
		ctx := int(ctx32 % (1<<16 + 1))
		g, err := NewTPGroup(s, degree, 150e9)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s tp%d %s v=%d ctx=%d bit=%d kv=%d: %v, reference %v",
					name, m.Name, degree, s.Class, v, ctx, bit, bitKV, got, want)
			}
		}
		want := decodeLatencyRef(s, g, m, v, ctx, bit, bitKV)
		curve := g.DecodeCurve(m, v, bit, bitKV)
		check("TPGroup.DecodeCurve.At", curve.At(ctx), want)
		check("TPGroup.DecodeLayerLatency", g.DecodeLayerLatency(m, v, ctx, bit, bitKV), want)
		if degree == 1 {
			want := decodeLatencyRef(s, nil, m, v, ctx, bit, bitKV)
			curve := s.DecodeCurve(m, v, bit, bitKV)
			check("Spec.DecodeCurve.At", curve.At(ctx), want)
			check("Spec.DecodeLayerLatency", s.DecodeLayerLatency(m, v, ctx, bit, bitKV), want)
		}
	})
}
