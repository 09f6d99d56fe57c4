package tensor

import "math"

// SoftmaxRow converts xs to a probability distribution in place using the
// numerically stable max-shift formulation. Where useFMA is set, groups
// of four take their exponentials from softmaxExpAVX2, which rounds as
// math.Exp does; the float64 sum runs in index order either way.
func SoftmaxRow(xs []float32) {
	if len(xs) == 0 {
		return
	}
	mx := xs[0]
	for _, v := range xs[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	rest := xs
	for useFMA && len(rest) >= 4 {
		n, s := softmaxExpAVX2(rest, mx, sum)
		rest = rest[n:]
		n = min(len(rest), 4)
		sum = expShift(rest[:n], mx, s)
		rest = rest[n:]
	}
	sum = expShift(rest, mx, sum)
	inv := float32(1 / sum)
	for i := range xs {
		xs[i] *= inv
	}
}

// expShift replaces each v in xs with float32(exp(float64(v − mx))) and
// returns sum plus the exponentials, added in index order.
func expShift(xs []float32, mx float32, sum float64) float64 {
	for i, v := range xs {
		e := math.Exp(float64(v - mx))
		xs[i] = float32(e)
		sum += e
	}
	return sum
}

// LogSoftmaxRow returns log(softmax(xs))[target] without mutating xs,
// using the log-sum-exp trick. It is the primitive behind perplexity.
func LogSoftmaxRow(xs []float32, target int) float64 {
	mx := xs[0]
	for _, v := range xs[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for _, v := range xs {
		sum += math.Exp(float64(v - mx))
	}
	return float64(xs[target]-mx) - math.Log(sum)
}

// LayerNorm normalizes each row of m to zero mean and unit variance, then
// applies the learned gain and bias. eps guards the variance. It panics
// if gain/bias lengths do not match m.Cols. Products are converted before
// they are added, so no architecture fuses a multiply-add.
func LayerNorm(m *Matrix, gain, bias []float32, eps float32) {
	if len(gain) != m.Cols || len(bias) != m.Cols {
		panic("tensor: LayerNorm parameter length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(len(row))
		var varr float64
		for _, v := range row {
			d := float64(v) - mean
			varr += float64(d * d)
		}
		varr /= float64(len(row))
		inv := float32(1 / math.Sqrt(varr+float64(eps)))
		for c, v := range row {
			row[c] = float32((v-float32(mean))*inv*gain[c]) + bias[c]
		}
	}
}

// GELU applies the tanh-approximated Gaussian error linear unit to m in
// place, matching the activation used by OPT/BLOOM MLP blocks. Where
// useFMA is set, groups of four run in geluAVX2, which repeats
// geluScalar bit for bit; a group it declines and the len%4 tail run in
// geluScalar.
func GELU(m *Matrix) {
	d := m.Data
	for useFMA && len(d) >= 4 {
		d = d[geluAVX2(d):]
		n := min(len(d), 4)
		geluScalar(d[:n])
		d = d[n:]
	}
	geluScalar(d)
}

// geluScalar applies GELU to xs in place. The cubic term is converted
// before it is added, so no architecture fuses it.
func geluScalar(xs []float32) {
	const c0 = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range xs {
		x := float64(v)
		xs[i] = float32(0.5 * x * (1 + math.Tanh(c0*(x+float64(0.044715*x*x*x)))))
	}
}

// ArgmaxRow returns the index of the largest element of xs. It panics on
// an empty slice.
func ArgmaxRow(xs []float32) int {
	if len(xs) == 0 {
		panic("tensor: ArgmaxRow of empty slice")
	}
	best, bi := xs[0], 0
	for i, v := range xs[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}
