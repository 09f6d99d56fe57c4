package quant

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestAWQProtectsSalientChannels(t *testing.T) {
	rng := stats.NewRNG(300)
	in, out, samples := 64, 48, 64
	w := randMatrix(rng, in, out, 0.05)
	x := outlierActivations(rng, samples, in) // channels %16==0 are hot
	s := Scheme{Bits: 3}

	rtn, err := QuantDequant(w, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	awq, err := AWQQuantize(w, x, s)
	if err != nil {
		t.Fatal(err)
	}
	// AWQ must reduce the activation-weighted reconstruction error even
	// if plain MSE gets slightly worse.
	rtnErr, err := WeightedReconError(w, rtn, x)
	if err != nil {
		t.Fatal(err)
	}
	awqErr, err := WeightedReconError(w, awq, x)
	if err != nil {
		t.Fatal(err)
	}
	if awqErr >= rtnErr {
		t.Fatalf("AWQ weighted error %v not below RTN %v", awqErr, rtnErr)
	}
}

func TestAWQEndToEndOutputError(t *testing.T) {
	// The weighted objective should translate to a smaller actual output
	// perturbation ‖XW − XŴ‖ when activations have hot channels.
	rng := stats.NewRNG(301)
	in, out, samples := 64, 48, 64
	w := randMatrix(rng, in, out, 0.05)
	x := outlierActivations(rng, samples, in)
	s := Scheme{Bits: 3}
	rtn, err := QuantDequant(w, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	awq, err := AWQQuantize(w, x, s)
	if err != nil {
		t.Fatal(err)
	}
	outErr := func(wq *tensor.Matrix) float64 {
		ref := tensor.MatMul(x, w)
		got := tensor.MatMul(x, wq)
		var sum float64
		for i := range ref.Data {
			d := float64(ref.Data[i] - got.Data[i])
			sum += d * d
		}
		return sum
	}
	if outErr(awq) >= outErr(rtn) {
		t.Fatalf("AWQ output error %v not below RTN %v", outErr(awq), outErr(rtn))
	}
}

func TestAWQIdentityAtFP16(t *testing.T) {
	rng := stats.NewRNG(302)
	w := randMatrix(rng, 8, 4, 0.05)
	x := randMatrix(rng, 8, 8, 1)
	out, err := AWQQuantize(w, x, FP16)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(w, out) != 0 {
		t.Fatal("FP16 AWQ altered weights")
	}
}

func TestAWQValidation(t *testing.T) {
	rng := stats.NewRNG(303)
	w := randMatrix(rng, 8, 4, 0.05)
	if _, err := AWQQuantize(w, randMatrix(rng, 8, 6, 1), Scheme{Bits: 4}); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if _, err := AWQQuantize(w, tensor.NewMatrix(0, 8), Scheme{Bits: 4}); err == nil {
		t.Fatal("empty calibration accepted")
	}
}

func TestWeightedReconErrorValidation(t *testing.T) {
	rng := stats.NewRNG(304)
	w := randMatrix(rng, 8, 4, 0.05)
	if _, err := WeightedReconError(w, randMatrix(rng, 6, 4, 0.05), randMatrix(rng, 8, 8, 1)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := WeightedReconError(w, w, tensor.NewMatrix(0, 8)); err == nil {
		t.Fatal("empty calibration accepted")
	}
}
