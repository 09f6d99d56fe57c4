package quant

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// reconLoss returns ||W·Xᵀ − Ŵ·Xᵀ||² / n, the layerwise objective GPTQ
// minimizes (rows of X are samples).
func reconLoss(w, wq, x *tensor.Matrix) float64 {
	orig := tensor.MatMulTransB(x, w) // samples × out
	quant := tensor.MatMulTransB(x, wq)
	var sum float64
	for i := range orig.Data {
		d := float64(orig.Data[i] - quant.Data[i])
		sum += d * d
	}
	return sum / float64(len(orig.Data))
}

func TestGPTQBeatsRTNOnReconstruction(t *testing.T) {
	rng := stats.NewRNG(100)
	// Correlated calibration inputs make error compensation matter.
	d, samples := 48, 96
	x := tensor.NewMatrix(samples, d)
	for r := 0; r < samples; r++ {
		base := rng.NormMS(0, 1)
		for c := 0; c < d; c++ {
			x.Set(r, c, float32(0.6*base+rng.NormMS(0, 0.8)))
		}
	}
	w := randMatrix(rng, 32, d, 0.05)

	for _, bits := range []int{3, 4} {
		s := Scheme{Bits: bits}
		rtn, err := QuantDequant(w, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		gptq, err := GPTQQuantize(w, x, s, GPTQOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lr := reconLoss(w, rtn, x)
		lg := reconLoss(w, gptq, x)
		if lg >= lr {
			t.Errorf("bits=%d: GPTQ loss %v not below RTN loss %v", bits, lg, lr)
		}
	}
}

func TestGPTQIdentityAtFP16(t *testing.T) {
	rng := stats.NewRNG(101)
	w := randMatrix(rng, 4, 8, 0.05)
	x := randMatrix(rng, 16, 8, 1)
	out, err := GPTQQuantize(w, x, FP16, GPTQOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(w, out) != 0 {
		t.Fatal("FP16 GPTQ altered weights")
	}
}

func TestGPTQValidation(t *testing.T) {
	rng := stats.NewRNG(102)
	w := randMatrix(rng, 4, 8, 0.05)
	x := randMatrix(rng, 16, 8, 1)
	if _, err := GPTQQuantize(w, x, Scheme{Bits: 4, Rounding: Stochastic}, GPTQOptions{}); err == nil {
		t.Fatal("stochastic GPTQ accepted")
	}
	bad := randMatrix(rng, 16, 7, 1)
	if _, err := GPTQQuantize(w, bad, Scheme{Bits: 4}, GPTQOptions{}); err == nil {
		t.Fatal("mismatched calibration accepted")
	}
	if _, err := GPTQQuantize(w, tensor.NewMatrix(0, 8), Scheme{Bits: 4}, GPTQOptions{}); err == nil {
		t.Fatal("empty calibration accepted")
	}
}

func TestGPTQOutputOnQuantGrid(t *testing.T) {
	// Every output weight must sit on the row's quantization grid.
	rng := stats.NewRNG(103)
	w := randMatrix(rng, 8, 16, 0.05)
	x := randMatrix(rng, 32, 16, 1)
	out, err := GPTQQuantize(w, x, Scheme{Bits: 4}, GPTQOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < w.Rows; r++ {
		row := w.Row(r)
		minV, maxV := float64(row[0]), float64(row[0])
		for _, v := range row[1:] {
			f := float64(v)
			if f < minV {
				minV = f
			}
			if f > maxV {
				maxV = f
			}
		}
		scale := ScaleFactor(minV, maxV, 4, false)
		for c := 0; c < w.Cols; c++ {
			q := float64(out.At(r, c))
			code := (q - minV) / scale
			if math.Abs(code-math.Round(code)) > 1e-3 {
				t.Fatalf("row %d col %d value %v off-grid (code %v)", r, c, q, code)
			}
		}
	}
}

func TestInvertSPD(t *testing.T) {
	a := [][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}}
	inv, err := invertSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	// a·inv ≈ I.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += a[i][k] * inv[k][j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-9 {
				t.Fatalf("(a·a⁻¹)[%d][%d] = %v", i, j, s)
			}
		}
	}
	if _, err := invertSPD([][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestGPTQImprovesTinyProblemExactly(t *testing.T) {
	// 1×2 weights with strongly correlated inputs: compensation moves
	// the second weight to absorb the first's rounding error.
	w := tensor.FromSlice(1, 2, []float32{0.30, 0.30})
	x := tensor.NewMatrix(64, 2)
	rng := stats.NewRNG(104)
	for r := 0; r < 64; r++ {
		v := float32(rng.NormMS(0, 1))
		x.Set(r, 0, v)
		x.Set(r, 1, v) // perfectly correlated
	}
	s := Scheme{Bits: 3}
	rtn, err := QuantDequant(w, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	gptq, err := GPTQQuantize(w, x, s, GPTQOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lg, lr := reconLoss(w, gptq, x), reconLoss(w, rtn, x); lg > lr {
		t.Fatalf("GPTQ %v worse than RTN %v on correlated toy", lg, lr)
	}
}

func TestGPTQActOrderNotWorse(t *testing.T) {
	// Act-order must not hurt reconstruction on correlated inputs.
	rng := stats.NewRNG(105)
	d, samples := 48, 96
	x := tensor.NewMatrix(samples, d)
	for r := 0; r < samples; r++ {
		base := rng.NormMS(0, 1)
		for c := 0; c < d; c++ {
			std := 0.8
			if c%8 == 0 {
				std = 3 // uneven channel energies make ordering matter
			}
			x.Set(r, c, float32(0.6*base+rng.NormMS(0, std)))
		}
	}
	w := randMatrix(rng, 32, d, 0.05)
	s := Scheme{Bits: 3}
	plain, err := GPTQQuantize(w, x, s, GPTQOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := GPTQQuantize(w, x, s, GPTQOptions{ActOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	lp, lo := reconLoss(w, plain, x), reconLoss(w, ordered, x)
	if lo > lp*1.1 {
		t.Fatalf("act-order clearly worse: %v vs %v", lo, lp)
	}
	rtn, err := QuantDequant(w, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= reconLoss(w, rtn, x) {
		t.Fatalf("act-order GPTQ %v not below RTN %v", lo, reconLoss(w, rtn, x))
	}
}
