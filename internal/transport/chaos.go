// ChaosProxy is a TCP man-in-the-middle for deterministic fault
// injection between a driver and one stage server. Faults are armed at
// absolute byte positions in each direction's forwarded stream — the
// gob traffic for a fixed prompt is byte-for-byte reproducible, so "cut
// the upstream after N bytes" lands at the same protocol point (even
// mid-message) on every run, independent of TCP read chunking. A seeded
// random mode layers probabilistic cuts and stalls on top for soak
// testing.

package transport

import (
	"net"
	"sync"
	"time"

	"repro/internal/stats"
)

// Direction selects which half of the proxied stream a fault applies to.
type Direction int

const (
	// Upstream is driver → stage traffic (requests).
	Upstream Direction = iota
	// Downstream is stage → driver traffic (responses).
	Downstream
)

func (d Direction) String() string {
	if d == Upstream {
		return "upstream"
	}
	return "downstream"
}

// ChaosStats counts proxied traffic and injected faults.
type ChaosStats struct {
	UpstreamBytes   int64 `json:"upstream_bytes"`
	DownstreamBytes int64 `json:"downstream_bytes"`
	Connections     int64 `json:"connections"`
	Cuts            int64 `json:"cuts"`
	Stalls          int64 `json:"stalls"`
	Delays          int64 `json:"delays"`
	DroppedConns    int64 `json:"dropped_conns"`
}

// ChaosProxy forwards TCP traffic to a target address, injecting
// seeded drops, stalls, delays, and mid-message cuts per direction.
type ChaosProxy struct {
	target string

	mu       sync.Mutex
	lis      net.Listener
	closed   bool
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
	bytes    [2]int64
	cutAt    [2]int64 // absolute byte position; -1 = disarmed
	stallAt  [2]int64
	stallFor time.Duration
	delay    [2]time.Duration
	dropNext int
	rng      *stats.RNG
	cutProb  float64
	stlProb  float64
	rndStall time.Duration
	stats    ChaosStats
}

// NewChaosProxy builds a proxy in front of target (a stage address).
// Arm faults, then Listen, then point the driver at the proxy address.
func NewChaosProxy(target string) *ChaosProxy {
	return &ChaosProxy{target: target, conns: map[net.Conn]bool{},
		cutAt: [2]int64{-1, -1}, stallAt: [2]int64{-1, -1}}
}

// CutAfterBytes arms a one-shot connection cut once the direction has
// forwarded n cumulative bytes (across reconnects): bytes up to n are
// delivered, then both sides of the pair are severed — a mid-message
// cut whenever n falls inside a gob message.
func (p *ChaosProxy) CutAfterBytes(dir Direction, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cutAt[dir] = n
}

// StallAfterBytes arms a one-shot forwarding stall of duration d once
// the direction has forwarded n cumulative bytes; with d beyond the
// peers' IO timeouts this renders the connection silently dead.
func (p *ChaosProxy) StallAfterBytes(dir Direction, n int64, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stallAt[dir] = n
	p.stallFor = d
}

// SetDelay adds fixed latency to every forwarded chunk in the
// direction (a slow but healthy link).
func (p *ChaosProxy) SetDelay(dir Direction, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delay[dir] = d
}

// DropNextConns makes the proxy accept-then-immediately-close the next
// n inbound connections, simulating a dead or refusing stage during
// reconnect attempts.
func (p *ChaosProxy) DropNextConns(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropNext = n
}

// Randomize enables seeded probabilistic faults: each forwarded chunk
// is cut with probability cutProb, else stalled for stallFor with
// probability stallProb. Deterministic for a fixed seed and traffic.
func (p *ChaosProxy) Randomize(seed uint64, cutProb, stallProb float64, stallFor time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = stats.NewRNG(seed)
	p.cutProb = cutProb
	p.stlProb = stallProb
	p.rndStall = stallFor
}

// Bytes returns the cumulative bytes forwarded in the direction, for
// calibrating fault positions from a clean run.
func (p *ChaosProxy) Bytes(dir Direction) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes[dir]
}

// Stats snapshots traffic and fault counters.
func (p *ChaosProxy) Stats() ChaosStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.UpstreamBytes = p.bytes[Upstream]
	st.DownstreamBytes = p.bytes[Downstream]
	return st
}

// Listen starts proxying on addr and returns the bound address.
func (p *ChaosProxy) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.lis = lis
	p.wg.Add(1)
	p.mu.Unlock()
	go p.acceptLoop(lis)
	return lis.Addr().String(), nil
}

func (p *ChaosProxy) acceptLoop(lis net.Listener) {
	defer p.wg.Done()
	for {
		client, err := lis.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			return
		}
		p.stats.Connections++
		if p.dropNext > 0 {
			p.dropNext--
			p.stats.DroppedConns++
			p.mu.Unlock()
			client.Close()
			continue
		}
		p.mu.Unlock()
		server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			server.Close()
			return
		}
		p.conns[client] = true
		p.conns[server] = true
		p.wg.Add(2)
		p.mu.Unlock()
		go p.pump(server, client, Upstream)
		go p.pump(client, server, Downstream)
	}
}

// pump copies src → dst, applying the direction's armed faults.
func (p *ChaosProxy) pump(dst, src net.Conn, dir Direction) {
	defer p.wg.Done()
	defer func() {
		dst.Close()
		src.Close()
		p.mu.Lock()
		delete(p.conns, dst)
		delete(p.conns, src)
		p.mu.Unlock()
	}()
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.forwardChunk(dst, src, buf[:n], dir) {
				return // fault severed the pair
			}
		}
		if err != nil {
			return
		}
	}
}

// forwardChunk delivers one read chunk, honoring delay, stall, and cut
// triggers. It returns false when a cut severed the connection pair.
func (p *ChaosProxy) forwardChunk(dst, src net.Conn, b []byte, dir Direction) bool {
	p.mu.Lock()
	delay := p.delay[dir]
	start := p.bytes[dir]
	end := start + int64(len(b))
	cut, stall := -1, -1
	stallFor := p.stallFor
	if p.cutAt[dir] >= 0 && p.cutAt[dir] < end {
		cut = int(max(0, p.cutAt[dir]-start))
		p.cutAt[dir] = -1
	}
	if cut < 0 && p.stallAt[dir] >= 0 && p.stallAt[dir] < end {
		stall = int(max(0, p.stallAt[dir]-start))
		p.stallAt[dir] = -1
	}
	if cut < 0 && stall < 0 && p.rng != nil {
		if r := p.rng.Float64(); r < p.cutProb {
			cut = p.rng.Intn(len(b) + 1)
		} else if r < p.cutProb+p.stlProb {
			stall = p.rng.Intn(len(b) + 1)
			stallFor = p.rndStall
		}
	}
	forwarded := int64(len(b))
	if cut >= 0 {
		forwarded = int64(cut)
		p.stats.Cuts++
	}
	if stall >= 0 {
		p.stats.Stalls++
	}
	if delay > 0 {
		p.stats.Delays++
	}
	p.bytes[dir] += forwarded
	p.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if cut >= 0 {
		if cut > 0 {
			dst.Write(b[:cut])
		}
		dst.Close()
		src.Close()
		return false
	}
	if stall >= 0 {
		if stall > 0 {
			if _, err := dst.Write(b[:stall]); err != nil {
				return false
			}
		}
		time.Sleep(stallFor)
		_, err := dst.Write(b[stall:])
		return err == nil
	}
	_, err := dst.Write(b)
	return err == nil
}

// Close stops the listener and severs every proxied connection.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	lis := p.lis
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	return err
}
