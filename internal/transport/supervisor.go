// Driver-side stage supervision: every stage connection is a supervised
// link with health state, poisoned-stream detection, and reconnect
// support. Any mid-stream frame or timeout error marks the link
// poisoned — the frame stream is assumed desynced (a frame may be half
// written or half read) and is never written to again — and the
// recovery layer (recovery.go) redials and replays.
// An optional heartbeat loop pings idle stages so failures are detected
// and repaired between generations, not just when a request hits them.

package transport

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/tinyllm"
)

// stageLink is one supervised connection to a stage server. The conn
// and its frame codec are only touched while holding Driver.genMu; the
// health fields are additionally guarded by Driver.healthMu so metric
// snapshots never block behind a running generation.
type stageLink struct {
	addr  string
	conn  net.Conn
	codec *frameCodec

	poisoned bool
	lastErr  string

	reconnects atomic.Uint64
	replayed   atomic.Uint64
	failed     atomic.Uint64

	// pendingReplayCredit marks a link reconnected since the last
	// successful replay, so replayed-token counts land on the stages
	// that actually lost their KV caches.
	pendingReplayCredit bool
}

// StageHealth is a point-in-time snapshot of one supervised link.
type StageHealth struct {
	Addr string `json:"addr"`
	// Healthy is false while the link is poisoned (awaiting reconnect).
	Healthy bool `json:"healthy"`
	// Reconnects counts successful redials after a poisoned stream.
	Reconnects uint64 `json:"reconnects"`
	// ReplayedTokens counts tokens re-forwarded to rebuild this stage's
	// KV caches after reconnects.
	ReplayedTokens uint64 `json:"replayed_tokens"`
	// FailedAttempts counts request or dial attempts that errored.
	FailedAttempts uint64 `json:"failed_attempts"`
	// LastErr is the most recent error observed on the link.
	LastErr string `json:"last_err,omitempty"`
}

// RecoveryStats aggregates recovery counters across all stages, in the
// shape the serve layer's metrics endpoint surfaces.
type RecoveryStats struct {
	// Reconnects is the total successful redials across stages.
	Reconnects uint64 `json:"reconnects"`
	// ReplayedTokens is the total tokens replayed to rebuild KV caches.
	ReplayedTokens uint64 `json:"replayed_tokens"`
	// FailedAttempts is the total errored request/dial attempts.
	FailedAttempts uint64 `json:"failed_attempts"`
	// Recoveries is the number of session-replay recoveries performed.
	Recoveries uint64 `json:"recoveries"`
	// Heartbeats is the number of heartbeat probe rounds completed
	// (each round pings every stage once).
	Heartbeats uint64 `json:"heartbeats"`
}

// Driver is the master engine: it owns the embeddings and LM head and
// drives a chain of remote stages over supervised connections.
//
// Concurrency contract: all exported methods are safe for concurrent
// use. Generate calls are serialized internally (the frame streams to
// the stages are shared), so concurrent generations run back to back,
// each under its own session; health and recovery snapshots never block
// behind a running generation. A closed driver stays closed:
// generations and Ping return an error without dialing, and
// StartHeartbeat does nothing.
type Driver struct {
	model *tinyllm.Model
	links []*stageLink
	// next is the last session id drawn. It starts at a random base, so
	// drivers that share a stage do not collide on session ids.
	next      atomic.Uint64
	ioTimeout time.Duration

	policy RetryPolicy
	rng    *stats.RNG  // jitter source; guarded by genMu
	clk    clock.Clock // the recovery backoff sleeps on it

	replayedTotal atomic.Uint64
	recoveries    atomic.Uint64
	heartbeats    atomic.Uint64

	genMu    sync.Mutex // serializes stream use: Generate, Ping, Close
	healthMu sync.Mutex // guards poisoned/lastErr on every link

	// lifeMu guards closed and hbStop, which Close, StartHeartbeat and
	// StopHeartbeat may touch concurrently. It is never held while
	// waiting for genMu.
	lifeMu sync.Mutex
	closed bool
	hbStop chan struct{}
	hbWG   sync.WaitGroup
}

// NewDriver reconstructs the master model from (cfg, seed), keeping its
// embeddings, final layer norm and LM head and dropping every block, and
// connects to the stage servers in pipeline order. Recovery defaults to
// DefaultRetryPolicy; tune with SetRetryPolicy.
func NewDriver(cfg tinyllm.Config, seed uint64, stageAddrs []string) (*Driver, error) {
	if len(stageAddrs) == 0 {
		return nil, errors.New("transport: no stages")
	}
	m, err := tinyllm.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	m.KeepBlocks(0, 0)
	var base [8]byte
	if _, err := rand.Read(base[:]); err != nil {
		return nil, fmt.Errorf("transport: session base: %w", err)
	}
	p := DefaultRetryPolicy()
	d := &Driver{model: m, policy: p, rng: stats.NewRNG(p.Seed), clk: clock.Real}
	d.next.Store(binary.LittleEndian.Uint64(base[:]))
	for _, addr := range stageAddrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		d.links = append(d.links, &stageLink{addr: addr, conn: conn,
			codec: newFrameCodec(conn, frameLimit(cfg))})
	}
	return d, nil
}

// SetIOTimeout bounds each per-message send and receive against the
// stage servers; a stage that stops responding poisons its link (and
// triggers recovery) instead of hanging the driver. Zero (the default)
// disables deadlines. Set before generating.
func (d *Driver) SetIOTimeout(t time.Duration) { d.ioTimeout = t }

// checkOpen fails once Close has run, so nothing redials a closed
// driver's stages.
func (d *Driver) checkOpen() error {
	d.lifeMu.Lock()
	defer d.lifeMu.Unlock()
	if d.closed {
		return errors.New("transport: driver closed")
	}
	return nil
}

// poison marks a link's stream desynced: the connection is closed and
// never written to again until a redial replaces it. Caller holds genMu.
func (d *Driver) poison(l *stageLink, err error) {
	l.conn.Close()
	l.failed.Add(1)
	d.healthMu.Lock()
	l.poisoned = true
	l.lastErr = err.Error()
	d.healthMu.Unlock()
}

// isPoisoned reports the link's health under healthMu.
func (d *Driver) isPoisoned(l *stageLink) bool {
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	return l.poisoned
}

// redial replaces a poisoned link's connection (poison already closed
// it) with a fresh one. Caller holds genMu.
func (d *Driver) redial(l *stageLink) error {
	timeout := d.ioTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", l.addr, timeout)
	if err != nil {
		d.poison(l, err) // still poisoned; records the failed attempt
		return fmt.Errorf("transport: redial %s: %w", l.addr, err)
	}
	l.conn = conn
	l.codec.reset(conn)
	l.reconnects.Add(1)
	l.pendingReplayCredit = true
	d.healthMu.Lock()
	l.poisoned = false
	l.lastErr = ""
	d.healthMu.Unlock()
	return nil
}

// reconnectPoisoned redials every poisoned link; the first failure
// aborts the round (the backoff loop retries). Caller holds genMu.
func (d *Driver) reconnectPoisoned() error {
	for _, l := range d.links {
		if !d.isPoisoned(l) {
			continue
		}
		if err := d.redial(l); err != nil {
			return markRetryable(err)
		}
	}
	return nil
}

// roundTrip sends req on one link and decodes the reply into resp,
// whose Data is valid until the link's next receive. The link's
// deadline is set to timeout from now, or cleared when timeout is 0, so
// no deadline an earlier call armed outlives it. A send or receive error
// poisons the link: its frame stream is desynced from then on. A
// poisoned link is never written to — that would feed the stage garbage
// — so the call fails at once. Caller holds genMu.
func (d *Driver) roundTrip(l *stageLink, req *Request, resp *Response, timeout time.Duration) error {
	if d.isPoisoned(l) {
		return fmt.Errorf("(%s) is down", l.addr)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	l.conn.SetDeadline(deadline)
	if err := l.codec.writeRequest(req); err != nil {
		d.poison(l, err)
		return fmt.Errorf("send: %w", err)
	}
	if err := l.codec.readResponse(resp); err != nil {
		d.poison(l, err)
		return fmt.Errorf("recv: %w", err)
	}
	return nil
}

// forwardOnce embeds toks at offset and pushes them through every
// stage, one attempt, no recovery. The result lives in the last link's
// receive buffer, valid until the next pass. Stream errors poison the
// link and return a retryable error; embedding and stage-reported
// computation errors are permanent. Caller holds genMu.
func (d *Driver) forwardOnce(session uint64, toks []int, offset int) (*tensor.Matrix, error) {
	x, err := d.model.Embed(toks, offset)
	if err != nil {
		return nil, err
	}
	for i, l := range d.links {
		req := Request{Session: session, Offset: offset, Rows: x.Rows, Cols: x.Cols, Data: x.Data}
		var resp Response
		if err := d.roundTrip(l, &req, &resp, d.ioTimeout); err != nil {
			return nil, markRetryable(fmt.Errorf("transport: stage %d %w", i, err))
		}
		if resp.Code == CodeStaleSession {
			// The stream is fine (we got a well-formed reply); only the
			// stage's session state is gone. Replay rebuilds it.
			return nil, markRetryable(fmt.Errorf("transport: stage %d: %w: %s", i, ErrStaleSession, resp.Err))
		}
		if resp.Err != "" {
			return nil, fmt.Errorf("transport: stage %d: %s", i, resp.Err)
		}
		x = tensor.FromSlice(resp.Rows, resp.Cols, resp.Data)
	}
	return x, nil
}

// closeSessionLocked releases stage-side caches; roundTrip skips
// poisoned links. Orphaned caches on unreachable stages are reclaimed
// by the stage's idle-session TTL instead. Caller holds genMu.
func (d *Driver) closeSessionLocked(session uint64) {
	for _, l := range d.links {
		d.roundTrip(l, &Request{Session: session, Close: true}, &Response{}, d.ioTimeout)
	}
}

// Ping probes every stage once with a heartbeat request, redialing
// poisoned links first. It returns the first error observed (nil when
// every stage answered).
func (d *Driver) Ping() error {
	d.genMu.Lock()
	defer d.genMu.Unlock()
	if err := d.checkOpen(); err != nil {
		return err
	}
	return d.pingLocked()
}

func (d *Driver) pingLocked() error {
	// A ping must never wedge the supervisor: even with no IO timeout
	// configured, the probe gets its own bounded deadline (a stage that
	// vanished without a FIN would otherwise block the decode forever).
	pingTO := d.ioTimeout
	if pingTO <= 0 {
		pingTO = time.Second
	}
	var firstErr error
	for i, l := range d.links {
		var err error
		if d.isPoisoned(l) {
			err = d.redial(l)
		}
		if err == nil {
			err = d.roundTrip(l, &Request{Ping: true}, &Response{}, pingTO)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("transport: stage %d ping: %w", i, err)
		}
	}
	d.heartbeats.Add(1)
	return firstErr
}

// StartHeartbeat supervises the stages in the background: every
// interval, idle links are pinged and poisoned links redialed, so
// failures surface (and heal) between generations. A beat that would
// contend with a running generation is skipped — forward progress is
// itself proof of liveness. No-op if already running, after Close, or
// with interval <= 0.
func (d *Driver) StartHeartbeat(interval time.Duration) {
	d.lifeMu.Lock()
	defer d.lifeMu.Unlock()
	if interval <= 0 || d.closed || d.hbStop != nil {
		return
	}
	stop := make(chan struct{})
	d.hbStop = stop
	d.hbWG.Add(1)
	go func() {
		defer d.hbWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if d.genMu.TryLock() {
					d.pingLocked()
					d.genMu.Unlock()
				}
			}
		}
	}()
}

// StopHeartbeat stops the background supervisor, if running. It waits
// under lifeMu for the loop to exit; that cannot deadlock, because the
// loop only ever try-locks genMu.
func (d *Driver) StopHeartbeat() {
	d.lifeMu.Lock()
	defer d.lifeMu.Unlock()
	if d.hbStop == nil {
		return
	}
	close(d.hbStop)
	d.hbWG.Wait()
	d.hbStop = nil
}

// StageHealth snapshots every supervised link.
func (d *Driver) StageHealth() []StageHealth {
	out := make([]StageHealth, len(d.links))
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	for i, l := range d.links {
		out[i] = StageHealth{
			Addr:           l.addr,
			Healthy:        !l.poisoned,
			Reconnects:     l.reconnects.Load(),
			ReplayedTokens: l.replayed.Load(),
			FailedAttempts: l.failed.Load(),
			LastErr:        l.lastErr,
		}
	}
	return out
}

// RecoveryStats aggregates the per-stage recovery counters.
func (d *Driver) RecoveryStats() RecoveryStats {
	var rs RecoveryStats
	for _, l := range d.links {
		rs.Reconnects += l.reconnects.Load()
		rs.FailedAttempts += l.failed.Load()
	}
	rs.ReplayedTokens = d.replayedTotal.Load()
	rs.Recoveries = d.recoveries.Load()
	rs.Heartbeats = d.heartbeats.Load()
	return rs
}

// Close stops the heartbeat and tears down the stage connections.
func (d *Driver) Close() {
	d.lifeMu.Lock()
	d.closed = true
	d.lifeMu.Unlock()
	d.StopHeartbeat()
	d.genMu.Lock()
	defer d.genMu.Unlock()
	for _, l := range d.links {
		l.conn.Close()
	}
}
