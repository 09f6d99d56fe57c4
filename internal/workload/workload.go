// Package workload generates the offline-serving request profiles the
// paper evaluates on. Real corpora (ShareGPT, CNN-DailyMail, LooGLE) are
// substituted by statistical generators matched to the length statistics
// the paper publishes: the ShareGPT prompt-length bucket fractions of
// §II-A, CNN-DailyMail's ~299-token outputs, and LooGLE's ~97k-token
// prompts with ~63-token outputs (Fig. 7). The planner consumes only
// (prompt length, output length) profiles, so matching these moments
// preserves the experiments' behaviour.
package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Request is one offline serving request.
type Request struct {
	// PromptLen is the tokenized prompt length.
	PromptLen int
	// OutputLen is the number of tokens to generate.
	OutputLen int
}

// Profile is a named collection of requests.
type Profile struct {
	Name     string
	Requests []Request
}

// AvgPrompt returns the mean prompt length.
func (p *Profile) AvgPrompt() float64 {
	if len(p.Requests) == 0 {
		return 0
	}
	s := 0
	for _, r := range p.Requests {
		s += r.PromptLen
	}
	return float64(s) / float64(len(p.Requests))
}

// AvgOutput returns the mean output length.
func (p *Profile) AvgOutput() float64 {
	if len(p.Requests) == 0 {
		return 0
	}
	s := 0
	for _, r := range p.Requests {
		s += r.OutputLen
	}
	return float64(s) / float64(len(p.Requests))
}

// PromptPercentile returns the q-th percentile of prompt lengths, or 0
// for an empty profile (Filter can drop every request; the caller sees
// a zero rather than a panic from the empty population).
func (p *Profile) PromptPercentile(q float64) int {
	if len(p.Requests) == 0 {
		return 0
	}
	xs := make([]float64, len(p.Requests))
	for i, r := range p.Requests {
		xs[i] = float64(r.PromptLen)
	}
	return int(stats.Percentile(xs, q))
}

// OutputPercentile returns the q-th percentile of output lengths, or 0
// for an empty profile.
func (p *Profile) OutputPercentile(q float64) int {
	if len(p.Requests) == 0 {
		return 0
	}
	xs := make([]float64, len(p.Requests))
	for i, r := range p.Requests {
		xs[i] = float64(r.OutputLen)
	}
	return int(stats.Percentile(xs, q))
}

// Filter returns a profile containing only requests whose total length
// (prompt + output) fits within maxPos, mirroring the paper's filtering
// of synthesized batches against max_position_embeddings.
func (p *Profile) Filter(maxPos int) *Profile {
	out := &Profile{Name: p.Name}
	for _, r := range p.Requests {
		if r.PromptLen+r.OutputLen <= maxPos {
			out.Requests = append(out.Requests, r)
		}
	}
	return out
}

// Truncate returns a profile with prompts clipped so prompt+output fits
// maxPos (used for long-context workloads on short-context models, where
// filtering would discard everything).
func (p *Profile) Truncate(maxPos int) *Profile {
	out := &Profile{Name: p.Name, Requests: make([]Request, len(p.Requests))}
	for i, r := range p.Requests {
		maxPrompt := maxPos - r.OutputLen
		if maxPrompt < 1 {
			maxPrompt = 1
		}
		if r.PromptLen > maxPrompt {
			r.PromptLen = maxPrompt
		}
		out.Requests[i] = r
	}
	return out
}

// clampInt bounds v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ShareGPT samples n conversation prompts matching the paper's bucket
// fractions: <128 (14.20%), 129–512 (20.52%), 513–1024 (14.24%),
// 1025–2048 (14.53%), >2048 (36.51%); outputs follow a chat-style
// log-normal around ~250 tokens.
func ShareGPT(rng *stats.RNG, n int) *Profile {
	p := &Profile{Name: "sharegpt"}
	weights := []float64{14.20, 20.52, 14.24, 14.53, 36.51}
	ranges := [][2]int{{1, 128}, {129, 512}, {513, 1024}, {1025, 2048}, {2049, 8192}}
	for i := 0; i < n; i++ {
		b := rng.Choice(weights)
		lo, hi := ranges[b][0], ranges[b][1]
		prompt := rng.IntRange(lo, hi)
		out := clampInt(int(rng.LogNormal(5.2, 0.8)), 1, 2048)
		p.Requests = append(p.Requests, Request{PromptLen: prompt, OutputLen: out})
	}
	return p
}

// CNNDailyMail samples n summarization requests: article-length prompts
// (log-normal, ~800 tokens) and ~299-token summaries, matching Fig. 7(a)
// and the output mean reported in §VI-C.
func CNNDailyMail(rng *stats.RNG, n int) *Profile {
	p := &Profile{Name: "cnn-dailymail"}
	for i := 0; i < n; i++ {
		prompt := clampInt(int(rng.LogNormal(6.62, 0.55)), 64, 4096)
		out := clampInt(int(rng.NormMS(299, 60)), 32, 1024)
		p.Requests = append(p.Requests, Request{PromptLen: prompt, OutputLen: out})
	}
	return p
}

// LooGLE samples n long-context-understanding requests: very long
// prompts (mean ~97k tokens) and short ~63-token answers, matching
// Fig. 7(b).
func LooGLE(rng *stats.RNG, n int) *Profile {
	p := &Profile{Name: "loogle"}
	for i := 0; i < n; i++ {
		prompt := clampInt(int(rng.LogNormal(11.42, 0.45)), 8192, 262144)
		out := clampInt(int(rng.LogNormal(4.0, 0.5)), 8, 512)
		p.Requests = append(p.Requests, Request{PromptLen: prompt, OutputLen: out})
	}
	return p
}

// Fixed returns n identical requests — the DeepSpeed-style synthetic
// workload used for the custom backend (batch 32, prompt 512).
func Fixed(n, promptLen, outputLen int) *Profile {
	p := &Profile{Name: fmt.Sprintf("fixed-s%d-n%d", promptLen, outputLen)}
	for i := 0; i < n; i++ {
		p.Requests = append(p.Requests, Request{PromptLen: promptLen, OutputLen: outputLen})
	}
	return p
}

// namedRequests is the sample size of every named profile.
const namedRequests = 2000

// Named samples the named request profile from seed: "summarization"
// (CNNDailyMail), "longcontext" (LooGLE) or "chat" (ShareGPT), each with
// 2000 requests.
func Named(name string, seed uint64) (*Profile, error) {
	var gen func(*stats.RNG, int) *Profile
	switch name {
	case "summarization":
		gen = CNNDailyMail
	case "longcontext":
		gen = LooGLE
	case "chat":
		gen = ShareGPT
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return gen(stats.NewRNG(seed), namedRequests), nil
}

// Batch is the planner's view of one synthesized offline batch: B padded
// requests chunked for prefill (Sarathi-style), per §IV-C's "padded and
// dynamically chunked into prompts of uniform length s, partitioned into
// κ chunks".
type Batch struct {
	// Size is the global batch size B (max concurrent requests).
	Size int
	// ChunkLen is the uniform chunk length s.
	ChunkLen int
	// Chunks is the chunk count κ; the padded prompt is ChunkLen·Chunks.
	Chunks int
	// GenTokens is the expected token-generation count n used for
	// latency estimation (the workload's mean output length).
	GenTokens int
	// ReserveTokens is the generation budget used for KV-cache memory
	// reservation in variable-output-length scenarios (the paper's
	// t_max): typically a high percentile of the output-length
	// distribution. Zero means GenTokens.
	ReserveTokens int
}

// Reserve returns the KV reservation budget: ReserveTokens when set,
// otherwise GenTokens.
func (b Batch) Reserve() int {
	if b.ReserveTokens > b.GenTokens {
		return b.ReserveTokens
	}
	return b.GenTokens
}

// PaddedPrompt returns the padded per-request prompt length s·κ.
func (b Batch) PaddedPrompt() int { return b.ChunkLen * b.Chunks }

// Validate checks batch parameters.
func (b Batch) Validate() error {
	if b.Size <= 0 || b.ChunkLen <= 0 || b.Chunks <= 0 || b.GenTokens <= 0 {
		return fmt.Errorf("workload: invalid batch %+v", b)
	}
	return nil
}

// Synthesize builds a batch from a profile: requests are filtered to the
// model's position limit, prompts are padded to the profile's 95th
// percentile (capped by maxPos minus the generation budget), and the
// padded prompt is split into chunkLen-token chunks. The generation
// budget is the profile's mean output, matching throughput-oriented
// offline serving.
func Synthesize(p *Profile, batchSize, chunkLen, maxPos int) (Batch, error) {
	if len(p.Requests) == 0 {
		return Batch{}, fmt.Errorf("workload: empty profile %q", p.Name)
	}
	if batchSize <= 0 || chunkLen <= 0 || maxPos <= 0 {
		return Batch{}, fmt.Errorf("workload: bad parameters B=%d chunk=%d maxPos=%d", batchSize, chunkLen, maxPos)
	}
	f := p.Filter(maxPos)
	if len(f.Requests) == 0 {
		f = p.Truncate(maxPos)
	}
	gen := int(math.Round(f.AvgOutput()))
	if gen < 1 {
		gen = 1
	}
	// Reserve KV for the 95th-percentile output so long generations in a
	// variable-output-length batch do not overflow the cache. The
	// population cannot be empty here: p is non-empty (checked above) and
	// both Filter's fallback, Truncate, and Filter-with-survivors keep at
	// least one request, so the Percentile call cannot hit the
	// empty-slice panic PromptPercentile guards against.
	outs := make([]float64, len(f.Requests))
	for i, r := range f.Requests {
		outs[i] = float64(r.OutputLen)
	}
	reserve := int(stats.Percentile(outs, 95))
	if reserve < gen {
		reserve = gen
	}
	if reserve > maxPos-1 {
		reserve = maxPos - 1
	}
	padded := f.PromptPercentile(95)
	paddedMax := maxPos - reserve
	if padded > paddedMax {
		padded = paddedMax
	}
	if padded < 1 {
		padded = 1
	}
	if padded < chunkLen {
		chunkLen = padded
	}
	// Round the chunk count up only when the padding still fits within
	// the position budget; otherwise round down.
	chunks := padded / chunkLen
	if padded%chunkLen != 0 && (chunks+1)*chunkLen <= paddedMax {
		chunks++
	}
	if chunks < 1 {
		chunks = 1
	}
	return Batch{Size: batchSize, ChunkLen: chunkLen, Chunks: chunks, GenTokens: gen, ReserveTokens: reserve}, nil
}

// LengthBuckets summarizes a profile's prompt lengths into the paper's
// §II-A buckets, returning fractions that sum to 1.
func LengthBuckets(p *Profile) map[string]float64 {
	out := map[string]float64{"<128": 0, "129-512": 0, "513-1024": 0, "1025-2048": 0, ">2048": 0}
	if len(p.Requests) == 0 {
		return out
	}
	for _, r := range p.Requests {
		switch {
		case r.PromptLen <= 128:
			out["<128"]++
		case r.PromptLen <= 512:
			out["129-512"]++
		case r.PromptLen <= 1024:
			out["513-1024"]++
		case r.PromptLen <= 2048:
			out["1025-2048"]++
		default:
			out[">2048"]++
		}
	}
	n := float64(len(p.Requests))
	for k := range out {
		out[k] /= n
	}
	return out
}

// BucketNames returns the §II-A bucket labels in display order (the
// ascending length-bucket order LengthBuckets keys by).
func BucketNames() []string {
	return []string{"<128", "129-512", "513-1024", "1025-2048", ">2048"}
}
