// Package stats provides the deterministic random-number generation,
// probability distributions, descriptive statistics, and ordinary
// least-squares regression used throughout the SplitQuant reproduction.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible bit-for-bit from an explicit seed.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is not safe for concurrent use; create one per goroutine.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniformly distributed int in [lo, hi]. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Norm returns a standard normally distributed value (Box-Muller).
func (r *RNG) Norm() float64 {
	// Avoid log(0) by shifting the uniform draw away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormMS returns a normal draw with the given mean and standard deviation.
// NormMS and LogNormal convert the scaled draw before adding, so no
// architecture fuses a multiply-add and every platform draws the same.
func (r *RNG) NormMS(mean, std float64) float64 {
	return mean + float64(std*r.Norm())
}

// LogNormal returns a draw from the log-normal distribution whose
// underlying normal has parameters mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.Norm()))
}

// Exp returns an exponentially distributed value with the given rate.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1-u) / rate
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly permutes the n elements addressed by swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a pseudo-random index in [0, len(weights)) with
// probability proportional to weights[i]. It panics if the weights are
// empty or sum to a non-positive value.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: Choice with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("stats: Choice with empty or zero-sum weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Split derives an independent generator from the current stream, useful
// for giving each worker its own deterministic stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
