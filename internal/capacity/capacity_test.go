package capacity

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

func TestAnalyzeWorkloadErrors(t *testing.T) {
	if _, err := AnalyzeWorkload(nil, 256); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := AnalyzeWorkload(&workload.Profile{}, 256); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := AnalyzeWorkload(workload.Fixed(4, 100, 10), 0); err == nil {
		t.Error("zero chunk length accepted")
	}
}

func TestAnalyzeWorkloadFixed(t *testing.T) {
	ws, err := AnalyzeWorkload(workload.Fixed(8, 600, 33), 256)
	if err != nil {
		t.Fatal(err)
	}
	// 600 tokens at chunk 256 → 3 chunks, one class with probability 1.
	if len(ws.ChunkClasses) != 1 || ws.ChunkClasses[0] != 3 {
		t.Errorf("chunk classes %v, want [3]", ws.ChunkClasses)
	}
	if math.Abs(ws.ChunkProbs[0]-1) > 1e-12 {
		t.Errorf("chunk prob %v, want 1", ws.ChunkProbs[0])
	}
	if ws.MeanPrompt != 600 || ws.MeanOutput != 33 {
		t.Errorf("means prompt %.1f output %.1f, want 600/33", ws.MeanPrompt, ws.MeanOutput)
	}
	if ws.MeanDecodeSteps != 32 {
		t.Errorf("decode steps %.1f, want 32 (first token is prefill's)", ws.MeanDecodeSteps)
	}
	// Every request is identical, so every context quantile is the same.
	want := 600 + 33/2
	if got := ws.CtxQuantile(0.1); got != want {
		t.Errorf("CtxQuantile(0.1) = %d, want %d", got, want)
	}
	if got := ws.BatchMaxCtx(32); got != want {
		t.Errorf("BatchMaxCtx(32) = %d, want %d", got, want)
	}
}

func TestAnalyzeWorkloadBucketsWideSupport(t *testing.T) {
	// 64 distinct prompt lengths → 64 distinct chunk counts, which must
	// merge into at most maxChunkClasses probability buckets.
	p := &workload.Profile{Name: "wide"}
	for i := 0; i < 64; i++ {
		p.Requests = append(p.Requests, workload.Request{PromptLen: (i + 1) * 256, OutputLen: 16})
	}
	ws, err := AnalyzeWorkload(p, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.ChunkClasses) > maxChunkClasses {
		t.Fatalf("%d chunk classes, cap is %d", len(ws.ChunkClasses), maxChunkClasses)
	}
	var total, meanC float64
	for i, pr := range ws.ChunkProbs {
		total += pr
		meanC += pr * float64(ws.ChunkClasses[i])
		if i > 0 && ws.ChunkClasses[i] <= ws.ChunkClasses[i-1] {
			t.Errorf("chunk classes not strictly ascending: %v", ws.ChunkClasses)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("chunk pmf sums to %v", total)
	}
	// Bucketing by weighted mean preserves the mean chunk count (32.5).
	if math.Abs(meanC-32.5) > 0.5 {
		t.Errorf("bucketed mean chunk count %.2f, want ≈32.5", meanC)
	}
}

func TestCtxQuantileMonotone(t *testing.T) {
	ws, err := AnalyzeWorkload(workload.ShareGPT(stats.NewRNG(5), 64), 256)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1.0} {
		v := ws.CtxQuantile(q)
		if v < prev {
			t.Errorf("CtxQuantile(%.2f) = %d < previous %d", q, v, prev)
		}
		prev = v
	}
	if ws.BatchMaxCtx(1) > ws.BatchMaxCtx(16) {
		t.Errorf("BatchMaxCtx not monotone in batch size: v=1 %d > v=16 %d",
			ws.BatchMaxCtx(1), ws.BatchMaxCtx(16))
	}
}

func TestWeightedQuantile(t *testing.T) {
	if got := quantiles(nil, 50); got[0] != 0 {
		t.Errorf("empty quantile = %v, want 0", got[0])
	}
	xs := []weighted{{v: 3, w: 1}, {v: 1, w: 1}, {v: 2, w: 2}}
	if got := quantiles(xs, 100, 50); got[0] != 3 || got[1] != 2 {
		t.Errorf("p100, p50 = %v, want [3 2]", got)
	}
	if got := weightedMean(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("mean = %v, want 2", got)
	}
	if got := weightedMean(nil); got != 0 {
		t.Errorf("empty mean = %v, want 0", got)
	}
}

// quantileRef is the per-percentile reading quantiles replaces: sort
// the atoms on every call, then scan the cumulative mass.
func quantileRef(xs []weighted, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	total := 0.0
	for _, x := range xs {
		total += x.w
	}
	if total <= 0 {
		return 0
	}
	cut := total * q / 100
	run := 0.0
	for _, x := range xs {
		run += x.w
		if run >= cut-1e-15 {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

// TestQuantilesMatchPerCallSort checks the sort-once, one-pass reading
// against sorting for every percentile, bit for bit and including the
// order the atoms are left in, on distributions with many tied values
// (as a station's wait atoms have) and percentiles asked out of order.
func TestQuantilesMatchPerCallSort(t *testing.T) {
	rng := stats.NewRNG(3)
	qs := []float64{99, 50, 0, 95, 100, 50, 1e-9}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		xs := make([]weighted, n)
		for i := range xs {
			xs[i] = weighted{v: float64(rng.Intn(12)) * 0.1, w: rng.Float64() * rng.Float64()}
		}
		if trial%10 == 0 && n > 0 {
			xs[rng.Intn(n)].v = math.Inf(1)
		}
		ref := append([]weighted(nil), xs...)
		got := quantiles(xs, qs...)
		for i, q := range qs {
			if want := quantileRef(ref, q); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d n=%d p%v = %v, per-call sort %v", trial, n, q, got[i], want)
			}
		}
		for i := range xs {
			if xs[i] != ref[i] {
				t.Fatalf("trial %d: atom %d left as %v, per-call sort leaves %v", trial, i, xs[i], ref[i])
			}
		}
	}
}
