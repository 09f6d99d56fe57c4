package quant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// TestGPTQAWQGolden pins a SHA-256 of GPTQQuantize's and AWQQuantize's
// outputs on seeded inputs at every bitwidth, both forms and both GPTQ
// column orders. A constant row and an all-zero row take the zero-scale
// branch.
func TestGPTQAWQGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	const want = "7b06012f06db559bf07098cd4786c3a07a75e77fcd432a31c4d3b070970d9e61"
	rng := stats.NewRNG(400)
	x := randMatrix(rng, 40, 24, 1)
	w := randMatrix(rng, 16, 24, 0.05)
	for c := 0; c < w.Cols; c++ {
		w.Set(0, c, 0.5)
		w.Set(1, c, 0)
	}
	wa := randMatrix(rng, 24, 16, 0.05)
	h := sha256.New()
	put := func(m *tensor.Matrix, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range m.Data {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	}
	for _, bits := range []int{3, 4, 8} {
		for _, sym := range []bool{false, true} {
			s := Scheme{Bits: bits, Symmetric: sym}
			put(GPTQQuantize(w, x, s, GPTQOptions{}))
			put(GPTQQuantize(w, x, s, GPTQOptions{ActOrder: true}))
			put(AWQQuantize(wa, x, s))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("GPTQ/AWQ output hash %s, want %s", got, want)
	}
}
