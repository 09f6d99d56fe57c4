package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("depth", "help")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Re-registration under the same schema returns the same series.
	if got := r.Counter("jobs_total", "help").Value(); got != 3.5 {
		t.Fatalf("re-registered counter = %v, want 3.5", got)
	}
}

func TestVecChildrenAreCached(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("pool_jobs_total", "help", "pool")
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Inc()
	if got := v.With("a").Value(); got != 2 {
		t.Fatalf(`With("a") = %v, want 2`, got)
	}
	if got := v.With("b").Value(); got != 1 {
		t.Fatalf(`With("b") = %v, want 1`, got)
	}
}

func TestLabelKeyCollision(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "help", "a", "b")
	v.With("p|q", "r").Add(1)
	v.With("p", "q|r").Add(10)
	if got := v.With("p|q", "r").Value(); got != 1 {
		t.Fatalf("label tuple collided: %v", got)
	}
}

// TestJoinKeyBytes pins the series key format: each label value as its
// decimal byte length, a colon, then the value.
func TestJoinKeyBytes(t *testing.T) {
	long := strings.Repeat("x", 12)
	for _, c := range []struct {
		values []string
		want   string
	}{
		{nil, ""},
		{[]string{""}, "0:"},
		{[]string{"", ""}, "0:0:"},
		{[]string{"pool1"}, "5:pool1"},
		{[]string{"completed", "V100-32G"}, "9:completed8:V100-32G"},
		{[]string{"1:a", ":"}, "3:1:a1::"},
		{[]string{"p|q", "r\x00"}, "3:p|q2:r\x00"},
		{[]string{long}, "12:" + long},
	} {
		if got := joinKey(c.values); got != c.want {
			t.Errorf("joinKey(%q) = %q, want %q", c.values, got, c.want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cumulative bucket counts must be monotonically non-decreasing and
	// end at the observation count.
	for _, line := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestMisregistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	assertPanics(t, "kind mismatch", func() { r.Gauge("x_total", "help") })
	assertPanics(t, "label mismatch", func() { r.CounterVec("x_total", "help", "pool") })
	assertPanics(t, "invalid name", func() { r.Counter("bad name", "help") })
	assertPanics(t, "non-monotonic buckets", func() { r.Histogram("h", "help", []float64{1, 1}) })
}

func assertPanics(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "help")
	h := r.Histogram("h_seconds", "help", DefBuckets)
	v := r.GaugeVec("g", "help", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 100)
				v.With("a").Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if got := v.With("a").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
}
