package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// startCountingPipeline is startPipeline with a request hook on every
// stage counting forward passes (not Close or Ping requests) per stage.
func startCountingPipeline(t *testing.T, cuts [][2]int) ([]string, []*atomic.Int64, func()) {
	t.Helper()
	var servers []*StageServer
	var addrs []string
	var passes []*atomic.Int64
	for _, c := range cuts {
		s, err := NewStageServer(cfg, seed, nil, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		n := new(atomic.Int64)
		s.SetRequestHook(func(req *Request) {
			if !req.Close && !req.Ping {
				n.Add(1)
			}
		})
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs = append(addrs, addr)
		passes = append(passes, n)
	}
	return addrs, passes, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// takePasses checks that every stage saw want forward passes since the
// last call, and resets the counters.
func takePasses(t *testing.T, what string, passes []*atomic.Int64, want int64) {
	t.Helper()
	for i, n := range passes {
		if got := n.Swap(0); got != want {
			t.Fatalf("%s: stage %d got %d forward passes, want %d", what, i, got, want)
		}
	}
}

// TestGeneratePassCount pins the generation loop's pass budget: a
// prefill plus one pass per emitted token except the last, which is
// never forwarded. n = 0 is a pure prefill, and a handoff splits the
// same budget between chains. The chaos tests' byte offsets (chaosAt)
// count frames by this budget.
func TestGeneratePassCount(t *testing.T) {
	srcAddrs, src, srcCleanup := startCountingPipeline(t, [][2]int{{0, 3}, {3, 6}})
	defer srcCleanup()
	dstAddrs, dst, dstCleanup := startCountingPipeline(t, [][2]int{{0, 2}, {2, 4}, {4, 6}})
	defer dstCleanup()
	s, err := NewDriver(cfg, seed, srcAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := NewDriver(cfg, seed, dstAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	prompt := RandomPrompt(stats.NewRNG(13), cfg.Vocab, 12)
	for _, n := range []int{0, 1, 5, 16} {
		got := mustGenerate(t, s, prompt, n)
		if len(got) != n {
			t.Fatalf("Generate(%d) emitted %d tokens", n, len(got))
		}
		want := int64(n)
		if n == 0 {
			want = 1
		}
		takePasses(t, "Generate", src, want)
	}

	const n = 14
	for _, k := range []int{1, 5, n} {
		head, log, err := s.GenerateLog(prompt, k)
		if err != nil {
			t.Fatal(err)
		}
		takePasses(t, "GenerateLog", src, int64(k))
		tail, err := d.Resume(log, n-k)
		if err != nil {
			t.Fatal(err)
		}
		takePasses(t, "Resume", dst, n)
		assertMatchesReference(t, nil, prompt, append(head, tail...), n)
	}
}

// TestClosedDriverStaysClosed: after Close, every generation and Ping
// fails without dialing a stage, and no request reaches one.
func TestClosedDriverStaysClosed(t *testing.T) {
	addrs, passes, cleanup := startCountingPipeline(t, [][2]int{{0, 6}})
	defer cleanup()
	d, err := NewDriver(cfg, seed, addrs)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetryPolicy(fastRetry)
	prompt := RandomPrompt(stats.NewRNG(4), cfg.Vocab, 6)
	_, log, err := d.GenerateLog(prompt, 3)
	if err != nil {
		t.Fatal(err)
	}
	passes[0].Store(0)
	d.Close()

	if _, err := d.Generate(prompt, 4); err == nil {
		t.Fatal("Generate after Close succeeded")
	}
	if _, _, err := d.GenerateLog(prompt, 4); err == nil {
		t.Fatal("GenerateLog after Close succeeded")
	}
	if _, err := d.Resume(log, 4); err == nil {
		t.Fatal("Resume after Close succeeded")
	}
	if err := d.Ping(); err == nil {
		t.Fatal("Ping after Close succeeded")
	}
	if rs := d.RecoveryStats(); rs.Reconnects != 0 || rs.Heartbeats != 0 {
		t.Fatalf("closed driver touched its stages: %+v", rs)
	}
	if n := passes[0].Load(); n != 0 {
		t.Fatalf("closed driver sent %d forward passes", n)
	}
}

// TestHeartbeatRacesClose: StartHeartbeat and Close may run
// concurrently (the race detector checks the heartbeat state), and
// whichever wins, no heartbeat runs once both have returned —
// including a StartHeartbeat issued after Close.
func TestHeartbeatRacesClose(t *testing.T) {
	addrs, cleanup := startPipeline(t, nil, [][2]int{{0, 6}})
	defer cleanup()
	for i := 0; i < 8; i++ {
		d, err := NewDriver(cfg, seed, addrs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); d.StartHeartbeat(time.Millisecond) }()
		go func() { defer wg.Done(); d.Close() }()
		wg.Wait()
		d.StartHeartbeat(time.Millisecond)

		before := d.RecoveryStats()
		time.Sleep(15 * time.Millisecond)
		after := d.RecoveryStats()
		d.StopHeartbeat()
		if after.Heartbeats != before.Heartbeats || after.Reconnects != 0 {
			t.Fatalf("heartbeat ran on a closed driver: %+v then %+v", before, after)
		}
	}
}
