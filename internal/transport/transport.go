// Package transport runs the tiny distributed inference runtime over
// real TCP connections: each pipeline stage is a server process holding
// only its own contiguous block range of a tinyllm model (quantized per
// the plan), and a master driver, which holds only the embeddings, the
// final layer norm and the LM head, embeds tokens, streams hidden
// states through the stage chain as fixed binary frames (frame.go), and
// applies the LM head. It is the reproduction's analogue of
// SplitQuant's worker processes — stage boundaries, per-stage KV
// caches, and activation transfers are real, even though the model is
// small.
//
// The runtime is fault-tolerant: the driver supervises each stage
// connection (supervisor.go), treats any mid-stream error as poisoning
// the frame stream, reconnects with capped exponential backoff, and
// replays the session's token history to rebuild stage KV caches so a
// generation survives stage crashes and network faults bit-identically
// (recovery.go). chaos.go provides a TCP fault-injection proxy for
// deterministic failure testing.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/tinyllm"
)

// Request is one stage-advance message.
type Request struct {
	// Session identifies a generation stream (its KV cache).
	Session uint64
	// Offset is the number of positions already cached for the session.
	Offset int
	// Rows/Cols/Data carry the hidden states row-major.
	Rows, Cols int
	Data       []float32
	// Close releases the session's cache instead of computing.
	Close bool
	// Ping is a heartbeat probe: the stage replies with an empty
	// Response without touching session state.
	Ping bool
}

// Response carries the advanced hidden states or an error.
type Response struct {
	Rows, Cols int
	Data       []float32
	Err        string
	// Code classifies protocol-level errors the driver can react to
	// ("" for success or generic failures).
	Code string
}

// CodeStaleSession marks a decode request (Offset > 0) for a session
// the stage does not know — the stage restarted or reaped the session.
// The driver's replay path recovers from it; computing with a silently
// fresh cache would return wrong hidden states.
const CodeStaleSession = "stale_session"

// session is one stage-side KV cache plus the bookkeeping the idle
// reaper needs.
type session struct {
	cache    *tinyllm.KVCache
	lastUsed time.Time
	// owner is the connection that created the session.
	owner *stageConn
}

// stageConn is one served connection: its frame codec and at most one
// idle KV cache, kept from a session the connection created and closed
// for the next session it creates. Only the connection's own handler
// touches it, so a cache handed on this way is never held by another
// handler: drivers use a session on one connection only.
type stageConn struct {
	codec *frameCodec
	idle  *tinyllm.KVCache
	// x wraps the request payload being served.
	x tensor.Matrix
}

// StageServer serves ForwardBlocks for a block range of one model. It
// holds the weights of that range only.
type StageServer struct {
	model  *tinyllm.Model
	lo, hi int

	mu        sync.Mutex
	sessions  map[uint64]*session
	conns     map[net.Conn]bool
	lis       net.Listener
	addr      string
	epoch     int // bumped by Restart; conns from older listeners are rejected
	wg        sync.WaitGroup
	closed    bool
	quit      chan struct{}
	ioTimeout time.Duration
	ttl       time.Duration
	reaped    uint64
	clk       clock.Clock // stamps lastUsed; the reaper's TTL reads it

	onRequest func(*Request)
}

// NewStageServer builds a stage over blocks [lo, hi) of a model
// reconstructed from (cfg, seed) and fake-quantized with the given
// per-layer bits (full-model length; only the stage's slice matters).
// The weights of the other blocks are dropped before quantization.
func NewStageServer(cfg tinyllm.Config, seed uint64, bits []int, lo, hi int) (*StageServer, error) {
	m, err := tinyllm.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > cfg.Layers || lo >= hi {
		return nil, fmt.Errorf("transport: stage range [%d, %d) of %d", lo, hi, cfg.Layers)
	}
	m.KeepBlocks(lo, hi)
	if bits != nil {
		m, err = m.ApplyBits(bits, quant.Scheme{}, nil)
		if err != nil {
			return nil, err
		}
	}
	return &StageServer{model: m, lo: lo, hi: hi,
		sessions: map[uint64]*session{}, conns: map[net.Conn]bool{},
		quit: make(chan struct{}), clk: clock.Real}, nil
}

// SetIOTimeout bounds each per-message read and write on stage
// connections; a peer that stalls mid-stream longer than d gets its
// connection closed instead of pinning a handler goroutine forever.
// Zero (the default) disables deadlines. Set before Listen.
func (s *StageServer) SetIOTimeout(d time.Duration) { s.ioTimeout = d }

// SetSessionTTL enables idle-session reaping: sessions untouched for
// longer than d are dropped so KV caches orphaned by a vanished driver
// are reclaimed. A stale driver that later retries the session gets
// CodeStaleSession and recovers by replay. Zero (the default) disables
// reaping. Set before Listen.
func (s *StageServer) SetSessionTTL(d time.Duration) { s.ttl = d }

// SetRequestHook installs fn to run on every decoded request before it
// is handled. Tests and chaos experiments use it to trigger faults at
// deterministic protocol points (e.g. restart the stage on the k-th
// decode request). It runs on the connection's handler goroutine, and
// the request's Data is valid only during the call. Set before Listen.
func (s *StageServer) SetRequestHook(fn func(*Request)) { s.onRequest = fn }

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *StageServer) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.lis = lis
	s.addr = lis.Addr().String()
	epoch := s.epoch
	s.wg.Add(1)
	if s.ttl > 0 {
		s.wg.Add(1)
		go s.reapLoop()
	}
	s.mu.Unlock()
	go s.acceptLoop(lis, epoch)
	return s.addr, nil
}

func (s *StageServer) acceptLoop(lis net.Listener, epoch int) {
	defer s.wg.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn, epoch)
		}()
	}
}

// reapLoop periodically drops idle sessions.
func (s *StageServer) reapLoop() {
	defer s.wg.Done()
	tick := s.ttl / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.ReapIdleSessions()
		}
	}
}

// ReapIdleSessions drops sessions idle longer than the configured TTL
// now and returns how many were reclaimed. The reap loop calls it
// periodically; tests call it directly for determinism.
func (s *StageServer) ReapIdleSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ttl <= 0 {
		return 0
	}
	now := s.clk.Now()
	n := 0
	for id, sess := range s.sessions {
		if now.Sub(sess.lastUsed) > s.ttl {
			delete(s.sessions, id)
			n++
		}
	}
	s.reaped += uint64(n)
	return n
}

// ReapedSessions returns how many idle sessions the TTL reaper has
// reclaimed.
func (s *StageServer) ReapedSessions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reaped
}

// SessionCount returns the number of live sessions (KV caches) held.
func (s *StageServer) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// DropSessions discards every session unconditionally, as a crash
// would. Tests use it to simulate state loss without a full restart.
func (s *StageServer) DropSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.sessions)
	s.sessions = map[uint64]*session{}
	return n
}

func (s *StageServer) serveConn(conn net.Conn, epoch int) {
	s.mu.Lock()
	if s.closed || epoch != s.epoch {
		// Either shutting down, or this conn was accepted from a
		// listener a Restart has since replaced: it must not survive
		// the restart (it would see pre-crash session state).
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = true
	s.mu.Unlock()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := &stageConn{codec: newFrameCodec(conn, frameLimit(s.model.Cfg))}
	var req Request
	var resp Response
	for {
		if s.ioTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ioTimeout))
		}
		if err := sc.codec.readRequest(&req); err != nil {
			return // connection closed, corrupt, or timed out
		}
		if h := s.onRequest; h != nil {
			h(&req)
		}
		s.handle(&req, sc, &resp)
		if s.ioTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
		}
		if err := sc.codec.writeResponse(&resp); err != nil {
			return
		}
	}
}

// frameLimit is the largest payload a stage frame carries: hidden states
// for every position of the model.
func frameLimit(cfg tinyllm.Config) int { return cfg.MaxPos * cfg.Hidden }

// handle advances one request, received on sc, through the stage's
// blocks and writes the reply into resp. resp.Data lives in the
// session's workspace until the session's next pass.
func (s *StageServer) handle(req *Request, sc *stageConn, resp *Response) {
	*resp = Response{}
	if req.Ping {
		return
	}
	if req.Close {
		s.mu.Lock()
		sess, ok := s.sessions[req.Session]
		delete(s.sessions, req.Session)
		s.mu.Unlock()
		if ok && sess.owner == sc && sc.idle == nil {
			sc.idle = sess.cache
		}
		return
	}
	if req.Rows*req.Cols != len(req.Data) {
		resp.Err = fmt.Sprintf("transport: payload %d for %dx%d", len(req.Data), req.Rows, req.Cols)
		return
	}
	s.mu.Lock()
	sess, ok := s.sessions[req.Session]
	if !ok {
		if req.Offset > 0 {
			// A decode request for a session we never prefetched: the
			// stage restarted or reaped it. Computing with an empty KV
			// cache would silently return wrong hidden states, so
			// reject with a typed code the driver's replay handles.
			s.mu.Unlock()
			resp.Code = CodeStaleSession
			resp.Err = fmt.Sprintf("transport: unknown session %d at offset %d (stage restarted or session reaped)", req.Session, req.Offset)
			return
		}
		cache := sc.idle
		if cache != nil {
			sc.idle = nil
			cache.Reset()
		} else {
			cache = s.model.NewCache()
		}
		sess = &session{cache: cache, owner: sc}
		s.sessions[req.Session] = sess
	}
	sess.lastUsed = s.clk.Now()
	s.mu.Unlock()
	sc.x = tensor.Matrix{Rows: req.Rows, Cols: req.Cols, Data: req.Data}
	out, err := s.model.ForwardBlocks(s.lo, s.hi, &sc.x, sess.cache, req.Offset)
	if err != nil {
		resp.Err = err.Error()
		return
	}
	resp.Rows, resp.Cols, resp.Data = out.Rows, out.Cols, out.Data
}

// Restart simulates a crash-and-replace: it severs every connection,
// discards all sessions (KV caches), and resumes listening on the same
// address with the same weights. Drivers mid-generation observe a
// poisoned stream, reconnect, and replay. Safe to call from a request
// hook (it does not wait for in-flight handlers).
func (s *StageServer) Restart() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("transport: restart after close")
	}
	lis := s.lis
	addr := s.addr
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.sessions = map[uint64]*session{}
	s.epoch++
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if addr == "" {
		return errors.New("transport: restart before listen")
	}
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: rebind %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nl.Close()
		return errors.New("transport: restart raced close")
	}
	s.lis = nl
	epoch := s.epoch
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(nl, epoch)
	return nil
}

// Close stops the listener, force-closes open connections (so a silent
// peer blocked in a read cannot wedge shutdown), and waits for in-flight
// handlers and the reaper to drain.
func (s *StageServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Reference generates the same tokens on a single in-process model, for
// verifying distributed execution.
func Reference(cfg tinyllm.Config, seed uint64, bits []int, prompt []int, n int) ([]int, error) {
	m, err := tinyllm.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	if bits != nil {
		m, err = m.ApplyBits(bits, quant.Scheme{}, nil)
		if err != nil {
			return nil, err
		}
	}
	logits, cache, err := m.Prefill(prompt)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	tok := tensor.ArgmaxRow(logits.Row(logits.Rows - 1))
	pos := len(prompt)
	for len(out) < n {
		out = append(out, tok)
		if pos >= cfg.MaxPos {
			break
		}
		lg, err := m.DecodeStep(tok, cache)
		if err != nil {
			return nil, err
		}
		tok = tensor.ArgmaxRow(lg.Row(0))
		pos++
	}
	return out, nil
}

// RandomPrompt draws a prompt of the given length for demos and tests.
func RandomPrompt(rng *stats.RNG, vocab, length int) []int {
	p := make([]int, length)
	for i := range p {
		p[i] = rng.Intn(vocab)
	}
	return p
}
