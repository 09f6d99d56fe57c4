package maintenance

import (
	"context"
	"fmt"

	"repro/internal/transport"
)

// Session is one in-flight generation to move: the token log captured
// on the draining pipeline (transport.Driver.GenerateLog) plus how many
// tokens it still owes.
type Session struct {
	ID        string
	Log       *transport.TokenLog
	Remaining int
}

// Moved is one migrated session's outcome: the tokens the destination
// produced after the replayed prefix. Appending Tokens to the tokens
// the source produced before the drain yields the exact sequence an
// uninterrupted run would have emitted — the replay rebuilds the KV
// caches deterministically, so the continuation is bit-identical.
type Moved struct {
	ID     string
	Tokens []int
}

// Migrator resumes drained sessions on a destination pipeline. The
// destination driver's own recovery machinery (reconnect + replay with
// capped backoff) makes Move safe under chaos: a cut or stall
// mid-migration re-replays the log and lands on the same tokens.
type Migrator struct {
	// Dest drives the destination pipeline.
	Dest *transport.Driver
}

// Move resumes each session on the destination and returns the
// continuations in input order. It stops at the first failed session:
// a partial result plus an error means the remainder still runs on the
// source.
func (m *Migrator) Move(ctx context.Context, sessions []Session) ([]Moved, error) {
	if m.Dest == nil {
		return nil, fmt.Errorf("maintenance: migrator has no destination driver")
	}
	out := make([]Moved, 0, len(sessions))
	for _, s := range sessions {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if s.Log == nil {
			return out, fmt.Errorf("maintenance: session %s has no token log", s.ID)
		}
		if err := s.Log.Validate(); err != nil {
			return out, fmt.Errorf("maintenance: session %s: %w", s.ID, err)
		}
		toks, err := m.Dest.Resume(s.Log, s.Remaining)
		if err != nil {
			return out, fmt.Errorf("maintenance: session %s failed to resume: %w", s.ID, err)
		}
		out = append(out, Moved{ID: s.ID, Tokens: toks})
	}
	return out, nil
}
