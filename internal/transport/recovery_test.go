package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

// fastRetry is a tight-but-bounded policy for tests.
var fastRetry = RetryPolicy{MaxAttempts: 6, BaseDelay: 2 * time.Millisecond,
	MaxDelay: 20 * time.Millisecond, Jitter: 0.2, Seed: 7}

func mustGenerate(t *testing.T, d *Driver, prompt []int, n int) []int {
	t.Helper()
	got, err := d.Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func assertMatchesReference(t *testing.T, bits []int, prompt, got []int, n int) {
	t.Helper()
	want, err := Reference(cfg, seed, bits, prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("token %d: distributed %d vs reference %d", i, got[i], want[i])
		}
	}
}

// TestKillStageMidDecodeRecovers is the acceptance scenario: a stage is
// crash-restarted (connections severed, KV caches lost) exactly at the
// 5th decode request, and the driver reconnects, replays the token log,
// and finishes with tokens bit-identical to the single-process
// reference, with recovery counters > 0.
func TestKillStageMidDecodeRecovers(t *testing.T) {
	var servers []*StageServer
	var addrs []string
	for _, c := range [][2]int{{0, 2}, {2, 4}, {4, 6}} {
		s, err := NewStageServer(cfg, seed, nil, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	// Stage 1 restarts itself on its 5th decode request (deterministic:
	// the hook runs in the request path, before the response is sent).
	var decodes atomic.Int64
	var once sync.Once
	servers[1].SetRequestHook(func(req *Request) {
		if req.Ping || req.Close || req.Offset == 0 {
			return
		}
		if decodes.Add(1) == 5 {
			once.Do(func() {
				if err := servers[1].Restart(); err != nil {
					t.Errorf("restart: %v", err)
				}
			})
		}
	})
	for _, s := range servers {
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	d, err := NewDriver(cfg, seed, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetRetryPolicy(fastRetry)

	prompt := RandomPrompt(stats.NewRNG(5), cfg.Vocab, 12)
	got := mustGenerate(t, d, prompt, 16)
	assertMatchesReference(t, nil, prompt, got, 16)

	rs := d.RecoveryStats()
	if rs.Reconnects == 0 || rs.ReplayedTokens == 0 || rs.Recoveries == 0 {
		t.Fatalf("recovery counters not advanced: %+v", rs)
	}
	sh := d.StageHealth()
	if sh[1].Reconnects == 0 || sh[1].ReplayedTokens == 0 {
		t.Fatalf("restarted stage's counters not credited: %+v", sh[1])
	}
	if sh[0].Reconnects != 0 || sh[2].Reconnects != 0 {
		t.Fatalf("healthy stages should not have reconnected: %+v", sh)
	}
}

// TestStaleSessionRejectedAtProtocol: a decode request (Offset > 0) for
// a session the stage does not hold must be rejected with
// CodeStaleSession, never silently computed against an empty KV cache.
func TestStaleSessionRejectedAtProtocol(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialFrames(t, addr)

	data := make([]float32, cfg.Hidden)
	resp := c.roundTrip(t, &Request{Session: 999, Offset: 7, Rows: 1, Cols: cfg.Hidden, Data: data})
	if resp.Code != CodeStaleSession {
		t.Fatalf("stale decode accepted: %+v", resp)
	}
	// Offset 0 for a fresh session must still create a cache and work.
	resp = c.roundTrip(t, &Request{Session: 999, Offset: 0, Rows: 1, Cols: cfg.Hidden, Data: data})
	if resp.Err != "" || resp.Code != "" {
		t.Fatalf("fresh prefill rejected: %+v", resp)
	}
}

// TestReapedSessionRecoveredByReplay: a stage drops its sessions
// mid-generation (as the idle-TTL reaper would for a stalled driver);
// the driver sees the typed stale-session rejection on an otherwise
// healthy stream and recovers by replay alone — no reconnect.
func TestReapedSessionRecoveredByReplay(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	var decodes atomic.Int64
	var once sync.Once
	s.SetRequestHook(func(req *Request) {
		if req.Ping || req.Close || req.Offset == 0 {
			return
		}
		if decodes.Add(1) == 4 {
			once.Do(func() { s.DropSessions() })
		}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d, err := NewDriver(cfg, seed, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetRetryPolicy(fastRetry)

	prompt := RandomPrompt(stats.NewRNG(8), cfg.Vocab, 10)
	got := mustGenerate(t, d, prompt, 12)
	assertMatchesReference(t, nil, prompt, got, 12)

	rs := d.RecoveryStats()
	if rs.Recoveries == 0 || rs.ReplayedTokens == 0 {
		t.Fatalf("stale session did not trigger replay: %+v", rs)
	}
	if rs.Reconnects != 0 {
		t.Fatalf("replay-only recovery should not reconnect: %+v", rs)
	}
}

// TestConcurrentGenerate exercises the driver's concurrency contract
// under -race: concurrent Generate calls are serialized on the shared
// streams, each under its own session, and all match the reference.
func TestConcurrentGenerate(t *testing.T) {
	addrs, cleanup := startPipeline(t, nil, [][2]int{{0, 3}, {3, 6}})
	defer cleanup()
	d, err := NewDriver(cfg, seed, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prompt := RandomPrompt(stats.NewRNG(uint64(100+w)), cfg.Vocab, 8+w)
			got, err := d.Generate(prompt, 10)
			if err != nil {
				errs <- err
				return
			}
			want, err := Reference(cfg, seed, nil, prompt, 10)
			if err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i] != want[i] {
					errs <- fmt.Errorf("worker %d token %d: %d vs %d", w, i, got[i], want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloseSessionSkipsPoisonedConn is the regression for the old
// closeSession behavior of writing into a desynced stream: after a
// permanent stage failure, the driver must not send anything more on
// the poisoned link — in particular no session-close garbage.
func TestCloseSessionSkipsPoisonedConn(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	var closes atomic.Int64
	s.SetRequestHook(func(req *Request) {
		if req.Close {
			closes.Add(1)
		}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	proxy := NewChaosProxy(addr)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	d, err := NewDriver(cfg, seed, []string{paddr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 3})

	// Sever the stream mid-generation and refuse every reconnect: the
	// generation must fail with the budget exhausted, and the poisoned
	// link must never carry another message (no Close writes).
	proxy.CutAfterBytes(Upstream, 600)
	proxy.DropNextConns(100)

	prompt := RandomPrompt(stats.NewRNG(4), cfg.Vocab, 10)
	_, err = d.Generate(prompt, 12)
	if err == nil {
		t.Fatal("generation against a dead stage should fail")
	}
	if !errors.Is(err, ErrRecoveryExhausted) {
		t.Fatalf("want ErrRecoveryExhausted, got %v", err)
	}
	if n := closes.Load(); n != 0 {
		t.Fatalf("driver wrote %d close messages into a poisoned stream", n)
	}
	sh := d.StageHealth()
	if sh[0].Healthy {
		t.Fatalf("link should be marked unhealthy: %+v", sh[0])
	}
	if sh[0].FailedAttempts == 0 {
		t.Fatalf("failed attempts not counted: %+v", sh[0])
	}
}

// TestPingHealsRestartedStage: heartbeats detect a dead stage and
// repair the link while the driver is idle, so the next generation
// starts against a healthy pipeline.
func TestPingHealsRestartedStage(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d, err := NewDriver(cfg, seed, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetRetryPolicy(fastRetry)

	if err := d.Ping(); err != nil {
		t.Fatalf("ping against healthy stage: %v", err)
	}
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	// The first ping after the restart observes the poisoned stream
	// (either on send or receive); a follow-up ping redials and heals.
	// Allow a couple of rounds for the poison to surface.
	healed := false
	for i := 0; i < 10; i++ {
		if err := d.Ping(); err == nil && d.StageHealth()[0].Healthy && d.RecoveryStats().Reconnects > 0 {
			healed = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !healed {
		t.Fatalf("ping did not heal the link: %+v", d.StageHealth())
	}

	prompt := RandomPrompt(stats.NewRNG(6), cfg.Vocab, 9)
	got := mustGenerate(t, d, prompt, 8)
	assertMatchesReference(t, nil, prompt, got, 8)
}

// TestHeartbeatLoop: the background supervisor heals a restarted stage
// without any driver call.
func TestHeartbeatLoop(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d, err := NewDriver(cfg, seed, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetRetryPolicy(fastRetry)
	d.StartHeartbeat(5 * time.Millisecond)
	defer d.StopHeartbeat()

	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.RecoveryStats().Reconnects > 0 && d.StageHealth()[0].Healthy {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("heartbeat never healed the link: %+v", d.StageHealth())
}

// TestIdleSessionTTLReaping: KV caches orphaned by a vanished driver
// are reclaimed once idle past the TTL on the stage clock, and a
// session idle exactly the TTL survives.
func TestIdleSessionTTLReaping(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	f := clock.NewFake(time.Unix(0, 0))
	s.clk = f
	const ttl = 10 * time.Millisecond
	s.SetSessionTTL(ttl)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A driver that prefills a session and then vanishes without Close.
	c := dialFrames(t, addr)
	data := make([]float32, 2*cfg.Hidden)
	if resp := c.roundTrip(t, &Request{Session: 42, Rows: 2, Cols: cfg.Hidden, Data: data}); resp.Err != "" {
		t.Fatalf("prefill failed: %q", resp.Err)
	}
	c.conn.Close() // driver vanishes

	// The reap loop sweeps on its own ticker but decides on the stage
	// clock, so the counts below are exact whoever sweeps.
	f.Advance(ttl)
	if n := s.ReapIdleSessions(); n != 0 || s.SessionCount() != 1 {
		t.Fatalf("session idle exactly the TTL: %d reaped, %d live, want 0 and 1", n, s.SessionCount())
	}
	f.Advance(1)
	s.ReapIdleSessions()
	if s.SessionCount() != 0 || s.ReapedSessions() != 1 {
		t.Fatalf("orphaned session past the TTL: %d live, %d reaped, want 0 and 1", s.SessionCount(), s.ReapedSessions())
	}
}

// TestRetryPolicyDelay pins the backoff shape: exponential from
// BaseDelay, capped at MaxDelay, jitter bounded and reproducible.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for i, want := range []time.Duration{10, 20, 40, 80, 80, 80} {
		if got := p.Delay(i+1, nil); got != want*time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
	// Jitter stays within [d, d·(1+Jitter)) and is seed-reproducible.
	p.Jitter = 0.5
	a := p.Delay(2, stats.NewRNG(11))
	b := p.Delay(2, stats.NewRNG(11))
	if a != b {
		t.Fatalf("jitter not reproducible: %v vs %v", a, b)
	}
	base := 20 * time.Millisecond
	if a < base || a >= base+time.Duration(float64(base)*0.5) {
		t.Fatalf("jittered delay %v outside [%v, %v)", a, base, base*3/2)
	}
	// Huge attempt numbers must not overflow.
	if d := p.Delay(1000, nil); d != 80*time.Millisecond {
		t.Fatalf("overflow guard failed: %v", d)
	}
}

// TestRecoveryDisabledFailsFast: MaxAttempts 0 restores the old
// fail-on-first-fault behavior.
func TestRecoveryDisabledFailsFast(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	s.SetRequestHook(func(req *Request) {
		if req.Offset > 0 {
			once.Do(func() { s.Restart() })
		}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d, err := NewDriver(cfg, seed, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetRetryPolicy(RetryPolicy{})

	if _, err := d.Generate(RandomPrompt(stats.NewRNG(2), cfg.Vocab, 8), 8); err == nil {
		t.Fatal("fault with recovery disabled should fail the generation")
	}
}
