package transport

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

// The chaos suite runs a two-stage pipeline with stage 0 behind a
// ChaosProxy and checks that every fault class, injected in either
// phase (prefill or decode) and direction, leaves the generation
// bit-identical to the single-process reference. Fault positions are
// byte offsets computed from the frame layout, so each cell
// severs/stalls the stream at a reproducible protocol point. Gated
// behind -short to keep the tier-1 loop fast.

const (
	chaosPromptSeed = 5
	chaosPromptLen  = 12
	chaosTokens     = 16
)

var chaosCuts = [][2]int{{0, 3}, {3, 6}}

// chaosOffsets are byte positions in a proxied generation of
// chaosTokens tokens from a chaosPromptLen-token prompt, computed from the
// frame layout. Both directions carry the same frames: the prefill of
// chaosPromptLen rows, chaosTokens−1 one-row decode passes (the last
// token is never forwarded), then the session close, a bare header.
type chaosOffsets struct {
	// pre lies halfway into the prefill frame, dec 60% of the way into
	// the decode frames.
	pre, dec int64
	// total is the whole generation's traffic in one direction.
	total int64
}

func chaosAt() chaosOffsets {
	prefill := frameBytes(chaosPromptLen, cfg.Hidden)
	decode := int64(chaosTokens-1) * frameBytes(1, cfg.Hidden)
	return chaosOffsets{pre: prefill / 2, dec: prefill + decode*6/10,
		total: prefill + decode + frameBytes(0, 0)}
}

// chaosRig is one proxied pipeline: driver → proxy → stage0 → stage1.
type chaosRig struct {
	servers []*StageServer
	proxy   *ChaosProxy
	driver  *Driver
}

func (r *chaosRig) close() {
	r.driver.Close()
	r.proxy.Close()
	for _, s := range r.servers {
		s.Close()
	}
}

// newChaosRig builds the pipeline; arm is called with the proxy before
// the driver connects (so even connection-establishment faults apply).
func newChaosRig(t *testing.T, ioTimeout time.Duration, arm func(p *ChaosProxy)) *chaosRig {
	t.Helper()
	r := &chaosRig{}
	var addrs []string
	for _, c := range chaosCuts {
		s, err := NewStageServer(cfg, seed, nil, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if ioTimeout > 0 {
			s.SetIOTimeout(ioTimeout * 4)
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, s)
		addrs = append(addrs, addr)
	}
	r.proxy = NewChaosProxy(addrs[0])
	if arm != nil {
		arm(r.proxy)
	}
	paddr, err := r.proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(cfg, seed, []string{paddr, addrs[1]})
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetryPolicy(fastRetry)
	if ioTimeout > 0 {
		d.SetIOTimeout(ioTimeout)
	}
	r.driver = d
	return r
}

func chaosPrompt() []int {
	return RandomPrompt(stats.NewRNG(chaosPromptSeed), cfg.Vocab, chaosPromptLen)
}

// TestChaosFaultMatrix: fault class × phase (× direction for stream
// faults) → generation completes and matches the reference.
func TestChaosFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	// Positions safely inside each phase's traffic: mid-prefill lands
	// inside the large first frame; mid-decode lands ~60% into the
	// decode frames.
	at := chaosAt()

	const stallIO = 80 * time.Millisecond // driver IO timeout for stall cells
	cases := []struct {
		name         string
		ioTimeout    time.Duration
		arm          func(p *ChaosProxy)
		wantRecovery bool
		// wantReplay: decode-phase faults must replay tokens to rebuild
		// KV caches; a prefill-phase fault recovers with an empty log.
		wantReplay bool
	}{
		{"cut/prefill/upstream", 0, func(p *ChaosProxy) { p.CutAfterBytes(Upstream, at.pre) }, true, false},
		{"cut/prefill/downstream", 0, func(p *ChaosProxy) { p.CutAfterBytes(Downstream, at.pre) }, true, false},
		{"cut/decode/upstream", 0, func(p *ChaosProxy) { p.CutAfterBytes(Upstream, at.dec) }, true, true},
		{"cut/decode/downstream", 0, func(p *ChaosProxy) { p.CutAfterBytes(Downstream, at.dec) }, true, true},
		{"stall/prefill/upstream", stallIO, func(p *ChaosProxy) { p.StallAfterBytes(Upstream, at.pre, 600*time.Millisecond) }, true, false},
		{"stall/decode/downstream", stallIO, func(p *ChaosProxy) { p.StallAfterBytes(Downstream, at.dec, 600*time.Millisecond) }, true, true},
		{"delay/both-phases/both-directions", 0, func(p *ChaosProxy) {
			p.SetDelay(Upstream, 200*time.Microsecond)
			p.SetDelay(Downstream, 200*time.Microsecond)
		}, false, false},
		{"drop/decode/reconnect-refused", 0, func(p *ChaosProxy) {
			// Sever mid-decode; the post-connect arm below also refuses
			// the first redial, so recovery must absorb a failed attempt
			// and succeed on the next.
			p.CutAfterBytes(Upstream, at.dec)
		}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newChaosRig(t, tc.ioTimeout, tc.arm)
			defer r.close()
			refused := tc.name == "drop/decode/reconnect-refused"
			if refused {
				// Armed after the driver's initial connection, which a
				// ping proves the proxy has accepted, so only the redial
				// is refused.
				if err := r.driver.Ping(); err != nil {
					t.Fatal(err)
				}
				r.proxy.DropNextConns(1)
			}
			got, err := r.driver.Generate(chaosPrompt(), chaosTokens)
			if err != nil {
				t.Fatalf("generation did not survive the fault: %v (health %+v)", err, r.driver.StageHealth())
			}
			assertMatchesReference(t, nil, chaosPrompt(), got, chaosTokens)
			rs := r.driver.RecoveryStats()
			if tc.wantRecovery && rs.Recoveries == 0 {
				t.Fatalf("fault did not exercise recovery: %+v (proxy %+v)", rs, r.proxy.Stats())
			}
			if tc.wantReplay && rs.ReplayedTokens == 0 {
				t.Fatalf("decode-phase fault replayed nothing: %+v (proxy %+v)", rs, r.proxy.Stats())
			}
			if refused && rs.FailedAttempts < 2 {
				t.Fatalf("recovery stats %+v, want ≥ 2 failed attempts (the cut and the refused redial)", rs)
			}
			if !tc.wantRecovery && rs.Recoveries != 0 {
				t.Fatalf("benign fault triggered recovery: %+v", rs)
			}
			if !tc.wantRecovery {
				// A clean run moves exactly the frames chaosAt counts,
				// so a change to the frame layout fails here, not as
				// faults that land in the wrong phase.
				for _, dir := range []Direction{Upstream, Downstream} {
					if got := r.proxy.Bytes(dir); got != at.total {
						t.Fatalf("%s traffic of a clean run is %d bytes, the frame layout says %d", dir, got, at.total)
					}
				}
			}
		})
	}
}

// TestChaosRestartMatrix: a full stage *restart* (listener bounced,
// every session wiped) injected mid-prefill and mid-decode, triggered
// off either chaos-proxy direction's byte counter. Unlike the stream
// faults above, the failure here is stateful — the stage forgets its KV
// sessions — so decode-phase restarts must recover via token-log
// replay. The generation must still match the reference bit for bit,
// with bounded recovery churn.
func TestChaosRestartMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	at := chaosAt()

	// Pace the stream so the watcher goroutine reliably lands the
	// restart inside the target phase window.
	const pace = 500 * time.Microsecond
	cases := []struct {
		name       string
		dir        Direction
		at         int64
		wantReplay bool
	}{
		{"restart/prefill/upstream", Upstream, at.pre, false},
		{"restart/prefill/downstream", Downstream, at.pre, false},
		{"restart/decode/upstream", Upstream, at.dec, true},
		{"restart/decode/downstream", Downstream, at.dec, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newChaosRig(t, 0, func(p *ChaosProxy) {
				p.SetDelay(Upstream, pace)
				p.SetDelay(Downstream, pace)
			})
			defer r.close()

			fired := make(chan bool, 1)
			go func() {
				deadline := time.Now().Add(10 * time.Second)
				for r.proxy.Bytes(tc.dir) < tc.at {
					if time.Now().After(deadline) {
						fired <- false
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
				if err := r.servers[0].Restart(); err != nil {
					t.Errorf("restart: %v", err)
				}
				fired <- true
			}()

			got, err := r.driver.Generate(chaosPrompt(), chaosTokens)
			if !<-fired {
				t.Fatalf("watcher never saw %d bytes %s", tc.at, tc.dir)
			}
			if err != nil {
				t.Fatalf("generation did not survive the restart: %v (health %+v)", err, r.driver.StageHealth())
			}
			assertMatchesReference(t, nil, chaosPrompt(), got, chaosTokens)
			rs := r.driver.RecoveryStats()
			if rs.Recoveries == 0 {
				t.Fatalf("restart did not exercise recovery: %+v (proxy %+v)", rs, r.proxy.Stats())
			}
			if rs.Recoveries > 8 {
				t.Fatalf("unbounded recovery churn after one restart: %+v", rs)
			}
			if tc.wantReplay && rs.ReplayedTokens == 0 {
				t.Fatalf("decode-phase restart replayed nothing: %+v", rs)
			}
		})
	}
}

// TestChaosOrphanReaping: when a stage stays unreachable (every redial
// refused) the generation fails, and the stage's one orphaned session
// is reclaimed by its idle-session TTL on the stage clock: it survives
// an idle time of exactly the TTL and goes one nanosecond later.
func TestChaosOrphanReaping(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	r := newChaosRig(t, 0, func(p *ChaosProxy) { p.CutAfterBytes(Upstream, chaosAt().dec) })
	defer r.close()
	// Armed after the driver's initial connection, which a ping proves
	// the proxy has accepted: only redials after the cut are refused —
	// the stage never comes back.
	if err := r.driver.Ping(); err != nil {
		t.Fatal(err)
	}
	r.proxy.DropNextConns(1000)
	// TTL set after Listen: the periodic reap loop is not running, so
	// the sweeps below are the only ones. The clock is swapped under
	// the stage lock its handlers read it under.
	stage, f := r.servers[0], clock.NewFake(time.Unix(0, 0))
	stage.mu.Lock()
	stage.clk = f
	stage.mu.Unlock()
	const ttl = 20 * time.Millisecond
	stage.SetSessionTTL(ttl)
	r.driver.clk = clock.NewFake(time.Unix(0, 0)) // backoff costs no real time
	r.driver.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond, Seed: 5})

	if _, err := r.driver.Generate(chaosPrompt(), chaosTokens); err == nil {
		t.Fatal("generation against a permanently dead stage should fail")
	}
	if n := stage.SessionCount(); n != 1 {
		t.Fatalf("%d sessions on the unreachable stage, want the one orphan", n)
	}
	f.Advance(ttl)
	if n := stage.ReapIdleSessions(); n != 0 || stage.SessionCount() != 1 {
		t.Fatalf("orphan idle exactly the TTL: %d reaped, %d live, want 0 and 1", n, stage.SessionCount())
	}
	f.Advance(1)
	if n := stage.ReapIdleSessions(); n != 1 || stage.SessionCount() != 0 || stage.ReapedSessions() != 1 {
		t.Fatalf("orphan past the TTL: %d reaped (%d in total), %d live, want 1, 1 and 0",
			n, stage.ReapedSessions(), stage.SessionCount())
	}
}

// TestChaosBackoffApplied: the recovery loop sleeps the policy's backoff
// before every attempt. After a mid-decode cut whose first two redials
// are refused, the driver clock has moved by exactly the sum of
// RetryPolicy.Delay over the attempts, drawn from an RNG replayed from
// the policy seed: one attempt per failed request or dial the driver
// recorded.
func TestChaosBackoffApplied(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	r := newChaosRig(t, 0, func(p *ChaosProxy) { p.CutAfterBytes(Upstream, chaosAt().dec) })
	defer r.close()
	if err := r.driver.Ping(); err != nil { // the proxy holds the first connection
		t.Fatal(err)
	}
	r.proxy.DropNextConns(2)
	t0 := time.Unix(0, 0)
	f := clock.NewFake(t0)
	r.driver.clk = f

	got, err := r.driver.Generate(chaosPrompt(), chaosTokens)
	if err != nil {
		t.Fatalf("generation did not survive the fault: %v", err)
	}
	assertMatchesReference(t, nil, chaosPrompt(), got, chaosTokens)
	rs := r.driver.RecoveryStats()
	if rs.FailedAttempts != 3 {
		t.Fatalf("recovery stats %+v, want 3 failed attempts (the cut and two refused redials)", rs)
	}
	rng := stats.NewRNG(fastRetry.Seed)
	var want time.Duration
	for a := 1; a <= int(rs.FailedAttempts); a++ {
		want += fastRetry.Delay(a, rng)
	}
	if elapsed := f.Now().Sub(t0); elapsed != want {
		t.Fatalf("backoff slept %v, the policy's delays sum to %v", elapsed, want)
	}
}

// TestChaosRandomSoak: seeded probabilistic cuts and stalls across the
// whole stream; the generation must still converge to the reference
// within a generous retry budget. Deterministic for a fixed seed.
func TestChaosRandomSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	r := newChaosRig(t, 60*time.Millisecond, func(p *ChaosProxy) {
		p.Randomize(2024, 0.01, 0.01, 200*time.Millisecond)
	})
	defer r.close()
	r.driver.SetRetryPolicy(RetryPolicy{MaxAttempts: 25, BaseDelay: time.Millisecond,
		MaxDelay: 10 * time.Millisecond, Jitter: 0.2, Seed: 9})

	got, err := r.driver.Generate(chaosPrompt(), chaosTokens)
	if err != nil {
		t.Fatalf("soak did not converge: %v (proxy %+v, health %+v)",
			err, r.proxy.Stats(), r.driver.StageHealth())
	}
	assertMatchesReference(t, nil, chaosPrompt(), got, chaosTokens)
}
