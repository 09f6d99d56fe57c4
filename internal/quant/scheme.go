// Package quant implements the quantization machinery of SplitQuant:
// symmetric and asymmetric integer fake quantization at 3/4/8 bits with
// deterministic or stochastic rounding and per-row scales, and the
// layer-sensitivity indicators of §IV-B — the paper's variance indicator
// (Proposition 1), the Hessian-based indicator it is compared against,
// and the random baseline.
package quant

import "fmt"

// Rounding selects how real values are mapped to integer grid points.
type Rounding int

const (
	// Deterministic rounds to the nearest grid point.
	Deterministic Rounding = iota
	// Stochastic rounds up with probability equal to the fractional part,
	// making the quantizer unbiased in expectation.
	Stochastic
)

// String returns the rounding mode name.
func (r Rounding) String() string {
	switch r {
	case Deterministic:
		return "deterministic"
	case Stochastic:
		return "stochastic"
	default:
		return fmt.Sprintf("Rounding(%d)", int(r))
	}
}

// Scheme describes one quantization configuration.
type Scheme struct {
	// Bits is the integer bitwidth; 16 means "keep FP16" (identity).
	Bits int
	// Symmetric selects symmetric (zero-point-free) quantization; the
	// default asymmetric form uses a zero point per row.
	Symmetric bool
	// Rounding selects deterministic or stochastic rounding.
	Rounding Rounding
}

// FP16 is the identity scheme: weights are left in 16-bit floating point.
var FP16 = Scheme{Bits: 16}

// Validate reports whether the scheme is supported.
func (s Scheme) Validate() error {
	switch s.Bits {
	case 3, 4, 8, 16:
	default:
		return fmt.Errorf("quant: unsupported bitwidth %d (want 3, 4, 8, or 16)", s.Bits)
	}
	return nil
}

// IsIdentity reports whether the scheme leaves weights untouched.
func (s Scheme) IsIdentity() bool { return s.Bits >= 16 }

// String returns a short description such as "int4-sym-det".
func (s Scheme) String() string {
	if s.IsIdentity() {
		return "fp16"
	}
	sym := "asym"
	if s.Symmetric {
		sym = "sym"
	}
	rnd := "det"
	if s.Rounding == Stochastic {
		rnd = "stoch"
	}
	return fmt.Sprintf("int%d-%s-%s", s.Bits, sym, rnd)
}

// ScaleFactor computes the scaling factor s for the value range
// [min, max] at bitwidth bits, following §IV-B: (max-min)/(2^b - 1) for
// asymmetric quantization and max(|max|,|min|)/(2^(b-1) - 1) for
// symmetric.
func ScaleFactor(minV, maxV float64, bits int, symmetric bool) float64 {
	if bits >= 16 {
		return 0
	}
	if symmetric {
		a := maxV
		if a < 0 {
			a = -a
		}
		if b := -minV; b > a {
			a = b
		}
		den := float64(int(1)<<(bits-1) - 1)
		if a == 0 {
			return 0
		}
		return a / den
	}
	den := float64(int(1)<<bits - 1)
	if maxV == minV {
		return 0
	}
	return (maxV - minV) / den
}
