// Deterministic session recovery: the driver keeps a per-session token
// log (prompt plus every generated token already forwarded) and, after
// a fault, reconnects poisoned links with capped exponential backoff
// and replays the log under a fresh session id. The replay re-issues
// exactly the original forward passes (one multi-row prefill, then one
// single-row pass per decoded token), so every stage — restarted or
// not — rebuilds its KV cache bit-identically and the generation
// resumes mid-decode with the same tokens Reference would produce.

package transport

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// ErrStaleSession is returned (wrapped) when a stage rejects a decode
// request for a session it no longer holds — the stage restarted or its
// idle-session TTL reaped the cache. It is retryable: the driver's
// replay path rebuilds the state.
var ErrStaleSession = errors.New("stale session")

// ErrRecoveryExhausted is returned (wrapped) when a generation keeps
// failing after the retry policy's full attempt budget.
var ErrRecoveryExhausted = errors.New("recovery budget exhausted")

// RetryPolicy bounds the driver's reconnect-and-replay loop.
type RetryPolicy struct {
	// MaxAttempts is the recovery budget per forward pass: how many
	// reconnect+replay rounds to try before giving up. Zero disables
	// recovery entirely (fail on first fault).
	MaxAttempts int
	// BaseDelay is the backoff before the first attempt; each further
	// attempt doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0 = uncapped).
	MaxDelay time.Duration
	// Jitter adds up to Jitter×delay of seeded random extra wait, to
	// decorrelate reconnect storms across drivers.
	Jitter float64
	// Seed seeds the jitter RNG, keeping backoff schedules
	// reproducible.
	Seed uint64
}

// DefaultRetryPolicy is the policy NewDriver installs: four attempts,
// 20ms–1s capped exponential backoff with 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond,
		MaxDelay: time.Second, Jitter: 0.2, Seed: 1}
}

// Delay computes the backoff before the attempt-th recovery attempt
// (1-based): BaseDelay·2^(attempt−1) capped at MaxDelay, plus jitter.
func (p RetryPolicy) Delay(attempt int, rng *stats.RNG) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelay
	// Cap the shift well before it can overflow a Duration.
	if attempt > 30 {
		attempt = 30
	}
	d <<= uint(attempt - 1)
	if d < p.BaseDelay { // overflow guard
		d = p.MaxDelay
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 && rng != nil {
		d += time.Duration(float64(d) * p.Jitter * rng.Float64())
	}
	return d
}

// SetRetryPolicy replaces the driver's recovery policy (and reseeds the
// jitter RNG). Set before generating.
func (d *Driver) SetRetryPolicy(p RetryPolicy) {
	d.genMu.Lock()
	defer d.genMu.Unlock()
	d.policy = p
	d.rng = stats.NewRNG(p.Seed)
}

// retryableError wraps faults the recovery loop may repair (stream
// errors, stale sessions, failed redials); everything else is
// permanent.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func markRetryable(err error) error { return &retryableError{err: err} }

func isRetryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re)
}

// genState is one generation's session and its token log: everything
// needed to rebuild the stage KV caches from scratch. log.Done holds
// the tokens forwarded through every stage so far.
type genState struct {
	session uint64
	log     TokenLog
}

// Generate runs prompt through the distributed pipeline and greedily
// decodes n tokens, returning the generated token ids. Faults
// (connection errors, stalls, stage restarts, reaped sessions) are
// repaired transparently within the retry policy's budget; the
// recovered generation is bit-identical to an unfaulted one.
func (d *Driver) Generate(prompt []int, n int) ([]int, error) {
	if len(prompt) == 0 || n < 0 {
		return nil, fmt.Errorf("transport: bad generate request (%d prompt tokens, n=%d)", len(prompt), n)
	}
	out, _, err := d.generate(&TokenLog{Prompt: prompt, Next: -1}, n)
	return out, err
}

// generate is the driver's one generation loop, behind Generate,
// GenerateLog and Resume. It opens a session, forwards the prompt, then
// forwards every token of log.Done, each appended to the session's
// token log as it lands, so a fault mid-rebuild replays only what this
// chain has already absorbed. It then decodes greedily, emitting up to
// n tokens (fewer at MaxPos). The last token emitted is never
// forwarded: it is the returned log's Next, the token a Resume feeds
// first, and forwarding it here would be a pass whose output nobody
// reads. A log.Next < 0 marks a fresh generation, whose first emitted
// token is the prefill's prediction; otherwise log.Next is pending (the
// producer emitted it) and is forwarded before anything is emitted.
func (d *Driver) generate(log *TokenLog, n int) ([]int, *TokenLog, error) {
	d.genMu.Lock()
	defer d.genMu.Unlock()
	if err := d.checkOpen(); err != nil {
		return nil, nil, err
	}
	g := &genState{session: d.next.Add(1), log: TokenLog{Prompt: append([]int(nil), log.Prompt...)}}
	defer func() { d.closeSessionLocked(g.session) }()

	h, err := d.forwardRecover(g, g.log.Prompt, 0)
	if err != nil {
		return nil, nil, err
	}
	for _, tok := range log.Done {
		if h, err = d.forwardRecover(g, []int{tok}, g.log.Positions()); err != nil {
			return nil, nil, err
		}
		g.log.Done = append(g.log.Done, tok)
	}
	out := make([]int, 0, n)
	tok := log.Next
	if tok < 0 && n > 0 {
		tok = d.nextToken(h)
		out = append(out, tok)
	}
	for len(out) < n && g.log.Positions() < d.model.Cfg.MaxPos {
		if h, err = d.forwardRecover(g, []int{tok}, g.log.Positions()); err != nil {
			return nil, nil, err
		}
		g.log.Done = append(g.log.Done, tok)
		tok = d.nextToken(h)
		out = append(out, tok)
	}
	g.log.Next = tok
	return out, &g.log, nil
}

// nextToken greedily picks the token that follows the last row of the
// final hidden states h. Only that row's logits matter, so the LM head
// runs on it alone.
func (d *Driver) nextToken(h *tensor.Matrix) int {
	last := tensor.FromSlice(1, h.Cols, h.Row(h.Rows-1))
	return tensor.ArgmaxRow(d.model.Logits(last).Row(0))
}

// forwardRecover is forwardOnce wrapped in the reconnect-and-replay
// loop: on a retryable fault it backs off, redials poisoned links,
// replays the token log under a fresh session, and retries the pass,
// up to the policy's attempt budget. Caller holds genMu.
func (d *Driver) forwardRecover(g *genState, toks []int, offset int) (*tensor.Matrix, error) {
	h, err := d.forwardOnce(g.session, toks, offset)
	for attempt := 1; err != nil && isRetryable(err) && d.policy.MaxAttempts > 0; attempt++ {
		if attempt > d.policy.MaxAttempts {
			return nil, fmt.Errorf("transport: %w after %d attempts: %v",
				ErrRecoveryExhausted, d.policy.MaxAttempts, err)
		}
		time.Sleep(d.policy.Delay(attempt, d.rng))
		// Each step's error is the one the next attempt reports; a
		// permanent one ends the loop.
		if err = d.reconnectPoisoned(); err == nil {
			if err = d.replay(g, offset > 0); err == nil {
				h, err = d.forwardOnce(g.session, toks, offset)
			}
		}
	}
	return h, err
}

// replay rebuilds every stage's KV cache for the session's token log
// under a fresh session id by re-issuing the exact forward passes that
// built it: one multi-row prefill of the prompt, then one single-row
// pass per forwarded token. It is the deterministic heart of recovery
// — the re-computed caches are bit-identical to the lost ones.
// prefilled is false when the failed pass was the prefill itself, so
// nothing has landed to rebuild. replay runs inside recovery, so its
// passes are single attempts: a fault here fails this recovery round
// and the caller's backoff loop retries. Caller holds genMu, with all
// links healthy (reconnectPoisoned just ran).
func (d *Driver) replay(g *genState, prefilled bool) error {
	old := g.session
	g.session = d.next.Add(1)
	d.recoveries.Add(1)
	// Reclaim the orphaned session on stages that kept their state; an
	// unreachable stage's copy falls to its idle-session TTL.
	d.closeSessionLocked(old)
	if !prefilled {
		return nil
	}
	if _, err := d.forwardOnce(g.session, g.log.Prompt, 0); err != nil {
		return err
	}
	for i, tok := range g.log.Done {
		if _, err := d.forwardOnce(g.session, []int{tok}, len(g.log.Prompt)+i); err != nil {
			return err
		}
	}
	replayed := uint64(g.log.Positions())
	d.replayedTotal.Add(replayed)
	for _, l := range d.links {
		if l.pendingReplayCredit {
			l.replayed.Add(replayed)
			l.pendingReplayCredit = false
		}
	}
	return nil
}
