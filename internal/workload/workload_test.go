package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestShareGPTBucketFractions(t *testing.T) {
	p := ShareGPT(stats.NewRNG(1), 20000)
	b := LengthBuckets(p)
	wants := map[string]float64{
		"<128": 0.1420, "129-512": 0.2052, "513-1024": 0.1424,
		"1025-2048": 0.1453, ">2048": 0.3651,
	}
	for k, want := range wants {
		if math.Abs(b[k]-want) > 0.015 {
			t.Errorf("bucket %s = %.4f, want %.4f", k, b[k], want)
		}
	}
}

func TestCNNDailyMailMoments(t *testing.T) {
	p := CNNDailyMail(stats.NewRNG(2), 20000)
	if out := p.AvgOutput(); math.Abs(out-299) > 15 {
		t.Fatalf("CNN avg output = %v, want ~299", out)
	}
	if in := p.AvgPrompt(); in < 500 || in > 1400 {
		t.Fatalf("CNN avg prompt = %v, want article scale", in)
	}
}

func TestLooGLEMoments(t *testing.T) {
	p := LooGLE(stats.NewRNG(3), 20000)
	if in := p.AvgPrompt(); math.Abs(in-97000) > 15000 {
		t.Fatalf("LooGLE avg prompt = %v, want ~97k", in)
	}
	if out := p.AvgOutput(); math.Abs(out-63) > 10 {
		t.Fatalf("LooGLE avg output = %v, want ~63", out)
	}
	// LooGLE prompts dwarf CNN prompts; outputs are the other way round.
	cnn := CNNDailyMail(stats.NewRNG(4), 5000)
	if p.AvgPrompt() < 20*cnn.AvgPrompt() {
		t.Fatal("LooGLE prompts should be far longer than CNN's")
	}
	if p.AvgOutput() > cnn.AvgOutput() {
		t.Fatal("LooGLE outputs should be shorter than CNN's")
	}
}

func TestFixedProfile(t *testing.T) {
	p := Fixed(32, 512, 100)
	if len(p.Requests) != 32 {
		t.Fatalf("len = %d", len(p.Requests))
	}
	for _, r := range p.Requests {
		if r.PromptLen != 512 || r.OutputLen != 100 {
			t.Fatalf("request = %+v", r)
		}
	}
}

func TestFilterAndTruncate(t *testing.T) {
	p := &Profile{Name: "x", Requests: []Request{
		{PromptLen: 100, OutputLen: 50},
		{PromptLen: 3000, OutputLen: 50},
	}}
	f := p.Filter(2048)
	if len(f.Requests) != 1 || f.Requests[0].PromptLen != 100 {
		t.Fatalf("Filter = %+v", f.Requests)
	}
	tr := p.Truncate(2048)
	if len(tr.Requests) != 2 {
		t.Fatalf("Truncate dropped requests")
	}
	if tr.Requests[1].PromptLen != 2048-50 {
		t.Fatalf("Truncate clipped to %d", tr.Requests[1].PromptLen)
	}
}

func TestSynthesizeRespectsMaxPos(t *testing.T) {
	rng := stats.NewRNG(5)
	p := CNNDailyMail(rng, 2000)
	b, err := Synthesize(p, 256, 2048, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.PaddedPrompt()+b.GenTokens > 2048 {
		t.Fatalf("batch exceeds position limit: %d + %d", b.PaddedPrompt(), b.GenTokens)
	}
	if b.Size != 256 {
		t.Fatalf("batch size = %d", b.Size)
	}
}

func TestSynthesizeChunking(t *testing.T) {
	// Long-context profile on a long-context model: multiple 2048 chunks.
	rng := stats.NewRNG(6)
	p := LooGLE(rng, 2000)
	b, err := Synthesize(p, 256, 2048, 131072)
	if err != nil {
		t.Fatal(err)
	}
	if b.Chunks < 2 {
		t.Fatalf("LooGLE should need many chunks, got %d", b.Chunks)
	}
	if b.ChunkLen != 2048 {
		t.Fatalf("chunk len = %d", b.ChunkLen)
	}
	if b.PaddedPrompt() < 8192 {
		t.Fatalf("padded prompt = %d too small for LooGLE", b.PaddedPrompt())
	}
}

func TestSynthesizeShortPromptShrinksChunk(t *testing.T) {
	p := Fixed(8, 100, 20)
	b, err := Synthesize(p, 8, 2048, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if b.Chunks != 1 || b.ChunkLen > 100 {
		t.Fatalf("short-prompt batch = %+v", b)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(&Profile{}, 8, 2048, 2048); err == nil {
		t.Fatal("empty profile accepted")
	}
	p := Fixed(4, 100, 10)
	if _, err := Synthesize(p, 0, 2048, 2048); err == nil {
		t.Fatal("zero batch accepted")
	}
}

func TestNamedProfiles(t *testing.T) {
	for name, gen := range map[string]func(*stats.RNG, int) *Profile{
		"summarization": CNNDailyMail,
		"longcontext":   LooGLE,
		"chat":          ShareGPT,
	} {
		got, err := Named(name, 9)
		if err != nil {
			t.Fatal(err)
		}
		if want := gen(stats.NewRNG(9), 2000); !reflect.DeepEqual(got, want) {
			t.Fatalf("Named(%q, 9) differs from its generator's 2000-request profile", name)
		}
	}
	for _, name := range []string{"", "fixed", "Chat"} {
		_, err := Named(name, 1)
		if want := fmt.Sprintf("unknown workload %q", name); err == nil || err.Error() != want {
			t.Fatalf("Named(%q) error %v, want %q", name, err, want)
		}
	}
}

func TestSynthesizeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := ShareGPT(rng, 300)
		maxPos := []int{2048, 8192, 32768}[rng.Intn(3)]
		b, err := Synthesize(p, 64, 2048, maxPos)
		if err != nil {
			return false
		}
		return b.Validate() == nil &&
			b.PaddedPrompt()+b.GenTokens <= maxPos &&
			b.PaddedPrompt() == b.ChunkLen*b.Chunks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthBucketsSumToOne(t *testing.T) {
	p := ShareGPT(stats.NewRNG(8), 1000)
	b := LengthBuckets(p)
	sum := 0.0
	for _, v := range b {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("bucket fractions sum to %v", sum)
	}
}

func TestPromptPercentileMonotone(t *testing.T) {
	p := CNNDailyMail(stats.NewRNG(9), 1000)
	if p.PromptPercentile(50) > p.PromptPercentile(95) {
		t.Fatal("percentiles not monotone")
	}
}

// TestPromptPercentileEmptyProfile is the regression test for the
// empty-population panic: Filter can drop every request (e.g. a
// long-context profile against a short-context model), and percentile
// queries on the result must return 0 instead of panicking.
func TestPromptPercentileEmptyProfile(t *testing.T) {
	p := LooGLE(stats.NewRNG(11), 50) // prompts ≥ 8192
	empty := p.Filter(1024)           // drops everything
	if n := len(empty.Requests); n != 0 {
		t.Fatalf("Filter kept %d requests, want 0", n)
	}
	if got := empty.PromptPercentile(95); got != 0 {
		t.Fatalf("PromptPercentile on empty profile = %d, want 0", got)
	}
	if got := empty.OutputPercentile(95); got != 0 {
		t.Fatalf("OutputPercentile on empty profile = %d, want 0", got)
	}
	if got := empty.AvgPrompt(); got != 0 {
		t.Fatalf("AvgPrompt on empty profile = %v, want 0", got)
	}
}

// TestBucketNamesMatchLengthBuckets locks the display order against the
// LengthBuckets key set: every name must be a key, every key a name,
// and the order must be ascending by bucket lower bound.
func TestBucketNamesMatchLengthBuckets(t *testing.T) {
	names := BucketNames()
	want := []string{"<128", "129-512", "513-1024", "1025-2048", ">2048"}
	if len(names) != len(want) {
		t.Fatalf("BucketNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BucketNames()[%d] = %q, want %q (display order must follow bucket bounds)", i, names[i], want[i])
		}
	}
	b := LengthBuckets(ShareGPT(stats.NewRNG(12), 100))
	if len(b) != len(names) {
		t.Fatalf("LengthBuckets has %d keys, BucketNames %d", len(b), len(names))
	}
	for _, n := range names {
		if _, ok := b[n]; !ok {
			t.Fatalf("BucketNames entry %q missing from LengthBuckets keys %v", n, b)
		}
	}
}
