// KV-cache handoff between disaggregated prefill and decode pools: the
// prefill pool runs the prompt (and possibly a few tokens) on its own
// stage chain, exports the per-session token log, and the decode pool
// resumes the generation on a *different* chain by replaying that log —
// the same deterministic rebuild the fault-recovery path performs after
// a reconnect. Because every forward pass is bit-exact, the combined
// prefill + resumed output is identical to one uninterrupted Generate
// (and to Reference) regardless of how the two chains split the layers.

package transport

import "fmt"

// TokenLog is the portable generation state handed from a prefill pool
// to a decode pool. It is deliberately tiny — token ids only, no
// tensors: the receiving driver rebuilds the KV caches by replaying the
// exact forward passes that produced them, so the handoff payload stays
// a few hundred bytes no matter how large the model is.
type TokenLog struct {
	// Prompt is the original prompt.
	Prompt []int
	// Done holds generated tokens already forwarded through the
	// producing chain (their positions are in its KV caches). The
	// resuming chain re-forwards them to rebuild equivalent caches.
	Done []int
	// Next is the most recently sampled token: emitted to the client by
	// the producer but not yet forwarded. The resuming chain feeds it
	// first.
	Next int
}

// Validate checks internal consistency.
func (l *TokenLog) Validate() error {
	if l == nil || len(l.Prompt) == 0 {
		return fmt.Errorf("transport: token log without a prompt")
	}
	if l.Next < 0 {
		return fmt.Errorf("transport: token log without a pending token")
	}
	return nil
}

// Positions returns the number of KV-cache positions the log's replay
// rebuilds (prompt plus forwarded tokens).
func (l *TokenLog) Positions() int { return len(l.Prompt) + len(l.Done) }

// GenerateLog is Generate that additionally exports the session's token
// log for a handoff: it decodes n tokens (n ≥ 1) and returns them along
// with the state a decode pool needs to continue the generation. The
// n-th token is sampled but not forwarded (it becomes TokenLog.Next);
// with n == 1 the call is a pure prefill — exactly the disaggregated
// serving split, where the prefill pool produces the first token and
// ships the session onward.
func (d *Driver) GenerateLog(prompt []int, n int) ([]int, *TokenLog, error) {
	if len(prompt) == 0 || n < 1 {
		return nil, nil, fmt.Errorf("transport: bad handoff request (%d prompt tokens, n=%d)", len(prompt), n)
	}
	return d.generate(&TokenLog{Prompt: prompt, Next: -1}, n)
}

// Resume continues a generation handed off from another driver: it
// rebuilds this chain's KV caches by re-issuing the producer's passes
// (the prompt prefill, then each TokenLog.Done token), feeds the
// pending TokenLog.Next token, and greedily decodes n further tokens.
// The producer's output followed by Resume's equals one uninterrupted
// Generate of the whole sequence, bit for bit, even when the two chains
// partition the layers differently. The rebuild runs under the same
// fault recovery as live decoding.
func (d *Driver) Resume(log *TokenLog, n int) ([]int, error) {
	if err := log.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("transport: bad resume request (n=%d)", n)
	}
	out, _, err := d.generate(log, n)
	return out, err
}
