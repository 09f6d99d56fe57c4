package transport

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestServerReadTimeoutDropsSilentPeer: with an IO timeout armed, a peer
// that connects and then goes silent has its connection closed by the
// server instead of pinning a handler goroutine.
func TestServerReadTimeoutDropsSilentPeer(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIOTimeout(50 * time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Send nothing. The server's per-message read deadline must fire and
	// close the connection; our read then sees EOF/reset well before the
	// test deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("expected the server to close the silent connection")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the connection (our read timed out instead)")
	}
}

// TestDriverRecvTimeout: a stage that accepts requests but never replies
// fails the driver's generation with a timeout error instead of hanging
// it forever.
func TestDriverRecvTimeout(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			// Swallow whatever arrives, reply with nothing.
			go io.Copy(io.Discard, conn)
		}
	}()

	d, err := NewDriver(cfg, seed, []string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetIOTimeout(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		_, err := d.Generate(RandomPrompt(stats.NewRNG(7), cfg.Vocab, 4), 2)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("generation against a mute stage should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("driver hung on a mute stage despite the IO timeout")
	}
}

// TestCloseRacesIOTimeout: closing the server while many silent peers
// are parked against a tiny IO deadline must not deadlock, panic, or
// leak handlers (the deadline close and the shutdown close race).
func TestCloseRacesIOTimeout(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIOTimeout(2 * time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	time.Sleep(time.Millisecond) // let deadlines start expiring mid-Close
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged while IO timeouts were firing")
	}
}

// TestRestartSeversIdleClientAndServesNew: Restart must kill existing
// connections, wipe sessions, and keep serving new dials on the same
// address.
func TestRestartSeversIdleClientAndServesNew(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	old, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}

	// The old connection is dead: a read sees EOF/reset, not a timeout.
	old.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := old.Read(make([]byte, 1)); err == nil {
		t.Fatal("restart left the old connection alive")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("restart never closed the old connection")
	}

	// A fresh dial against the same address completes a full roundtrip.
	c := dialFrames(t, addr)
	data := make([]float32, cfg.Hidden)
	if resp := c.roundTrip(t, &Request{Session: 1, Rows: 1, Cols: cfg.Hidden, Data: data}); resp.Err != "" {
		t.Fatalf("post-restart request failed: %s", resp.Err)
	}
}

// TestDriverTimeoutThenCloseIsClean: after a generation fails on IO
// timeouts (every link poisoned, budget exhausted), Close must return
// promptly without touching the dead streams.
func TestDriverTimeoutThenCloseIsClean(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()

	d, err := NewDriver(cfg, seed, []string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	d.SetIOTimeout(20 * time.Millisecond)
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1})

	if _, err := d.Generate(RandomPrompt(stats.NewRNG(3), cfg.Vocab, 4), 2); err == nil {
		t.Fatal("mute stage should fail the generation")
	}
	done := make(chan struct{})
	go func() { d.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after a timed-out generation")
	}
}

// TestCloseUnblocksSilentConn: even without an IO timeout, Close must
// not wait forever on a connected peer that never sends a request.
func TestCloseUnblocksSilentConn(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Make sure the server has registered the connection before closing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on an idle connection")
	}
}
