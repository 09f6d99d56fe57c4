package maintenance

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/transport"
)

// TestMigrateConservesTokens is the token-conservation property of
// Migrator.Move. Over seeded random batches of in-flight sessions
// (prompt length, cut point, tokens still owed), each captured on a
// two-stage source chain and resumed on a three-stage destination with a
// different split, Move must return one continuation per session in
// input order, and the source's tokens followed by the continuation must
// equal transport.Reference bit for bit, also where MaxPos ends the
// generation early. A bad session in the middle of a batch (no log, an
// invalid log, or a negative token count) must yield exactly the
// continuations before it plus an error naming it.
func TestMigrateConservesTokens(t *testing.T) {
	_, src, srcCleanup := e2ePipeline(t, [][2]int{{0, 3}, {3, 6}}, nil)
	defer srcCleanup()
	_, dst, dstCleanup := e2ePipeline(t, [][2]int{{0, 2}, {2, 4}, {4, 6}}, nil)
	defer dstCleanup()
	mig := &Migrator{Dest: dst}
	ctx := context.Background()

	type inflight struct {
		Session
		prompt   []int
		produced []int
	}
	rng := stats.NewRNG(36)
	for batch := 0; batch < 8; batch++ {
		var sessions []inflight
		for i, n := 0, rng.IntRange(1, 4); i < n; i++ {
			prompt := transport.RandomPrompt(rng, e2eCfg.Vocab, rng.IntRange(1, e2eCfg.MaxPos))
			produced, log, err := src.GenerateLog(prompt, rng.IntRange(1, 12))
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, inflight{
				Session:  Session{ID: fmt.Sprintf("b%d-s%d", batch, i), Log: log, Remaining: rng.IntRange(0, 12)},
				prompt:   prompt,
				produced: produced,
			})
		}
		in := make([]Session, len(sessions))
		for i, s := range sessions {
			in[i] = s.Session
		}

		moved, err := mig.Move(ctx, in)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if len(moved) != len(in) {
			t.Fatalf("batch %d: moved %d of %d sessions", batch, len(moved), len(in))
		}
		for i, s := range sessions {
			if moved[i].ID != s.ID {
				t.Fatalf("batch %d: continuation %d is %s, want %s (input order)", batch, i, moved[i].ID, s.ID)
			}
			want, err := transport.Reference(e2eCfg, e2eSeed, nil, s.prompt, len(s.produced)+s.Remaining)
			if err != nil {
				t.Fatal(err)
			}
			if got := append(slices.Clip(s.produced), moved[i].Tokens...); !slices.Equal(got, want) {
				t.Fatalf("session %s (prompt %d, cut %d, owed %d):\nmigrated  %v\nReference %v",
					s.ID, len(s.prompt), len(s.produced), s.Remaining, got, want)
			}
		}

		// The same batch with one bad session spliced in at a seeded
		// position: Move stops there, and what it returns is the
		// prefix of the good run.
		at := rng.IntRange(0, len(in))
		bad := Session{ID: fmt.Sprintf("b%d-bad", batch), Remaining: 1}
		switch batch % 3 {
		case 1:
			bad.Log = &transport.TokenLog{Prompt: []int{1}, Next: -1}
		case 2:
			bad.Log, bad.Remaining = in[0].Log, -1
		}
		partial, err := mig.Move(ctx, slices.Insert(slices.Clone(in), at, bad))
		if err == nil || !strings.Contains(err.Error(), bad.ID) {
			t.Fatalf("batch %d: bad session at %d: err = %v, want one naming %s", batch, at, err, bad.ID)
		}
		if len(partial) != at {
			t.Fatalf("batch %d: bad session at %d: got %d continuations, want %d", batch, at, len(partial), at)
		}
		for i := range partial {
			if partial[i].ID != moved[i].ID || !slices.Equal(partial[i].Tokens, moved[i].Tokens) {
				t.Fatalf("batch %d: continuation %d before the bad session differs from the good run", batch, i)
			}
		}
	}
}
