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
	d.genMu.Lock()
	defer d.genMu.Unlock()
	g := &genState{session: d.next.Add(1), prompt: prompt}
	defer func() { d.closeSessionLocked(g.session) }()

	x, err := d.model.Embed(prompt, 0)
	if err != nil {
		return nil, nil, err
	}
	h, err := d.forwardRecover(g, x, 0)
	if err != nil {
		return nil, nil, err
	}
	tok := d.nextToken(h)
	pos := len(prompt)
	out := make([]int, 0, n)
	for {
		out = append(out, tok)
		if len(out) == n || pos >= d.model.Cfg.MaxPos {
			break
		}
		x, err := d.model.Embed([]int{tok}, pos)
		if err != nil {
			return nil, nil, err
		}
		h, err := d.forwardRecover(g, x, pos)
		if err != nil {
			return nil, nil, err
		}
		g.done = append(g.done, tok)
		tok = d.nextToken(h)
		pos++
	}
	log := &TokenLog{
		Prompt: append([]int(nil), prompt...),
		Done:   append([]int(nil), g.done...),
		Next:   out[len(out)-1],
	}
	return out, log, nil
}

// Resume continues a generation handed off from another driver: it
// rebuilds this chain's KV caches by replaying the token log (one
// multi-row prefill of the prompt, then one single-row pass per
// forwarded token — the identical passes the producer issued), feeds
// the pending TokenLog.Next token, and greedily decodes n further
// tokens. The producer's output followed by Resume's equals one
// uninterrupted Generate of the whole sequence, bit for bit, even when
// the two chains partition the layers differently.
//
// The replay runs through the same fault-recovery wrapper as live
// decoding, so a handoff target whose links drop mid-rebuild recovers
// like any other session.
func (d *Driver) Resume(log *TokenLog, n int) ([]int, error) {
	if err := log.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("transport: bad resume request (n=%d)", n)
	}
	d.genMu.Lock()
	defer d.genMu.Unlock()
	g := &genState{session: d.next.Add(1), prompt: append([]int(nil), log.Prompt...)}
	defer func() { d.closeSessionLocked(g.session) }()

	// Rebuild: the prompt prefill, then every forwarded token. Each pass
	// extends g.done as it lands, so a mid-rebuild fault replays only
	// what this chain has already absorbed.
	x, err := d.model.Embed(g.prompt, 0)
	if err != nil {
		return nil, err
	}
	if _, err := d.forwardRecover(g, x, 0); err != nil {
		return nil, err
	}
	pos := len(g.prompt)
	for _, tok := range log.Done {
		x, err := d.model.Embed([]int{tok}, pos)
		if err != nil {
			return nil, err
		}
		if _, err := d.forwardRecover(g, x, pos); err != nil {
			return nil, err
		}
		g.done = append(g.done, tok)
		pos++
	}

	// Continue decoding from the pending token.
	tok := log.Next
	out := make([]int, 0, n)
	for len(out) < n {
		if pos >= d.model.Cfg.MaxPos {
			break
		}
		x, err := d.model.Embed([]int{tok}, pos)
		if err != nil {
			return nil, err
		}
		h, err := d.forwardRecover(g, x, pos)
		if err != nil {
			return nil, err
		}
		g.done = append(g.done, tok)
		tok = d.nextToken(h)
		pos++
		out = append(out, tok)
	}
	return out, nil
}
