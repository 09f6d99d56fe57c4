// Command stagesrv runs the tiny distributed inference runtime over real
// TCP sockets: in -serve mode it hosts one pipeline stage (a contiguous
// block range of a tinyllm model); in -drive mode it acts as the master
// engine, streaming hidden states through a chain of stage servers and
// decoding greedily.
//
// Single-process demo (spawns stages in-process):
//
//	stagesrv -demo -stages 3
//
// Fault-injection demo (chaos proxy cuts stage 0's stream mid-stream;
// the driver must reconnect, replay, and still match the reference):
//
//	stagesrv -demo -stages 3 -chaos
//
// Multi-process:
//
//	stagesrv -serve -layers 0:4  -listen 127.0.0.1:7001 -session-ttl 2m &
//	stagesrv -serve -layers 4:8  -listen 127.0.0.1:7002 -session-ttl 2m &
//	stagesrv -drive -chain 127.0.0.1:7001,127.0.0.1:7002 -tokens 24 -heartbeat 5s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/tinyllm"
	"repro/internal/transport"
)

// cfg is the shared model every process reconstructs from the seed.
var cfg = tinyllm.Config{Name: "stagesrv", Layers: 12, Hidden: 64, Heads: 4, FFN: 192, Vocab: 192, MaxPos: 128}

const seed = 7777

// driveOpts carries the driver-side resilience knobs shared by -drive
// and -demo.
type driveOpts struct {
	heartbeat time.Duration
	ioTimeout time.Duration
}

func main() {
	var (
		serve  = flag.Bool("serve", false, "host one pipeline stage")
		drive  = flag.Bool("drive", false, "drive a chain of stages")
		demo   = flag.Bool("demo", false, "run a self-contained multi-stage demo in one process")
		layers = flag.String("layers", "", "-serve: block range lo:hi")
		listen = flag.String("listen", "127.0.0.1:0", "-serve: listen address")
		chain  = flag.String("chain", "", "-drive: comma-separated stage addresses in order")
		tokens = flag.Int("tokens", 16, "-drive/-demo: tokens to generate")
		stages = flag.Int("stages", 3, "-demo: stage count")
		bits   = flag.String("bits", "", "per-layer bitwidths, comma-separated (empty = FP16)")
		ioTO   = flag.Duration("io-timeout", 0, "per-message IO deadline on stage connections (0 = none)")
		ttl    = flag.Duration("session-ttl", 0, "-serve/-demo: reap stage sessions idle longer than this (0 = never)")
		hb     = flag.Duration("heartbeat", 0, "-drive/-demo: ping stages at this interval between generations (0 = off)")
		chaos  = flag.Bool("chaos", false, "-demo: put a chaos proxy in front of stage 0 and cut the stream mid-generation")
	)
	flag.Parse()
	opts := driveOpts{heartbeat: *hb, ioTimeout: *ioTO}
	switch {
	case *serve:
		runServe(*layers, *listen, *bits, *ioTO, *ttl)
	case *drive:
		runDrive(*chain, *tokens, opts)
	case *demo:
		runDemo(*stages, *tokens, *bits, *ttl, *chaos, opts)
	default:
		fmt.Fprintln(os.Stderr, "usage: stagesrv -serve|-drive|-demo ...")
		os.Exit(2)
	}
}

func parseBits(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != cfg.Layers {
		return nil, fmt.Errorf("need %d bitwidths, got %d", cfg.Layers, len(parts))
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// applyDriveOpts configures a driver from the command-line resilience
// knobs; zero values keep the built-in defaults. Reconnects follow
// transport.DefaultRetryPolicy.
func applyDriveOpts(d *transport.Driver, opts driveOpts) {
	if opts.ioTimeout > 0 {
		d.SetIOTimeout(opts.ioTimeout)
	}
	if opts.heartbeat > 0 {
		d.StartHeartbeat(opts.heartbeat)
	}
}

func printRecovery(d *transport.Driver) {
	rs := d.RecoveryStats()
	fmt.Printf("recovery:    reconnects=%d replayed=%d failed=%d recoveries=%d\n",
		rs.Reconnects, rs.ReplayedTokens, rs.FailedAttempts, rs.Recoveries)
	for _, h := range d.StageHealth() {
		state := "healthy"
		if !h.Healthy {
			state = "POISONED: " + h.LastErr
		}
		fmt.Printf("stage %-21s %s (reconnects=%d replayed=%d failed=%d)\n",
			h.Addr, state, h.Reconnects, h.ReplayedTokens, h.FailedAttempts)
	}
}

func runServe(layerSpec, listen, bitSpec string, ioTimeout, ttl time.Duration) {
	var lo, hi int
	if _, err := fmt.Sscanf(layerSpec, "%d:%d", &lo, &hi); err != nil {
		fatal(fmt.Errorf("bad -layers %q: %w", layerSpec, err))
	}
	bits, err := parseBits(bitSpec)
	if err != nil {
		fatal(err)
	}
	s, err := transport.NewStageServer(cfg, seed, bits, lo, hi)
	if err != nil {
		fatal(err)
	}
	s.SetIOTimeout(ioTimeout)
	s.SetSessionTTL(ttl)
	addr, err := s.Listen(listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stage [%d:%d) serving on %s\n", lo, hi, addr)
	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, close open
	// connections, and drain in-flight handlers before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("stage [%d:%d) shutting down on %v (%d sessions reaped)\n",
		lo, hi, got, s.ReapedSessions())
	if err := s.Close(); err != nil {
		fatal(err)
	}
}

func runDrive(chain string, tokens int, opts driveOpts) {
	addrs := strings.Split(chain, ",")
	d, err := transport.NewDriver(cfg, seed, addrs)
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	applyDriveOpts(d, opts)
	prompt := transport.RandomPrompt(stats.NewRNG(99), cfg.Vocab, 12)
	out, err := d.Generate(prompt, tokens)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("prompt:    %v\ngenerated: %v\n", prompt, out)
	printRecovery(d)
}

// demoStages spins up in-process stage servers and returns their
// addresses alongside the handles.
func demoStages(stages int, bits []int, ttl time.Duration) ([]string, []*transport.StageServer) {
	per := cfg.Layers / stages
	var addrs []string
	var servers []*transport.StageServer
	for i := 0; i < stages; i++ {
		lo := i * per
		hi := lo + per
		if i == stages-1 {
			hi = cfg.Layers
		}
		s, err := transport.NewStageServer(cfg, seed, bits, lo, hi)
		if err != nil {
			fatal(err)
		}
		s.SetSessionTTL(ttl)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stage %d: layers [%d:%d) on %s\n", i, lo, hi, addr)
		addrs = append(addrs, addr)
		servers = append(servers, s)
	}
	return addrs, servers
}

func runDemo(stages, tokens int, bitSpec string, ttl time.Duration, chaos bool, opts driveOpts) {
	bits, err := parseBits(bitSpec)
	if err != nil {
		fatal(err)
	}
	if stages < 1 || stages > cfg.Layers {
		fatal(fmt.Errorf("stages %d out of range 1-%d", stages, cfg.Layers))
	}
	addrs, servers := demoStages(stages, bits, ttl)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	prompt := transport.RandomPrompt(stats.NewRNG(99), cfg.Vocab, 12)

	if chaos {
		// Calibrate: run once through a clean proxy to learn how many
		// upstream bytes a full generation moves, then rerun with the
		// stream cut halfway and require a bit-identical result.
		clean := transport.NewChaosProxy(addrs[0])
		cleanAddr, err := clean.Listen("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		d, err := transport.NewDriver(cfg, seed, append([]string{cleanAddr}, addrs[1:]...))
		if err != nil {
			fatal(err)
		}
		applyDriveOpts(d, opts)
		if _, err := d.Generate(prompt, tokens); err != nil {
			fatal(err)
		}
		total := clean.Bytes(transport.Upstream)
		d.Close()
		clean.Close()

		proxy := transport.NewChaosProxy(addrs[0])
		proxy.CutAfterBytes(transport.Upstream, total/2)
		chaosAddr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		defer proxy.Close()
		fmt.Printf("chaos: stage 0 behind %s, upstream cut after %d/%d bytes\n",
			chaosAddr, total/2, total)
		addrs[0] = chaosAddr
	}

	d, err := transport.NewDriver(cfg, seed, addrs)
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	applyDriveOpts(d, opts)
	out, err := d.Generate(prompt, tokens)
	if err != nil {
		fatal(err)
	}
	ref, err := transport.Reference(cfg, seed, bits, prompt, tokens)
	if err != nil {
		fatal(err)
	}
	match := "MATCH"
	for i := range out {
		if i >= len(ref) || out[i] != ref[i] {
			match = "MISMATCH"
			break
		}
	}
	fmt.Printf("prompt:      %v\ndistributed: %v\nreference:   %v\nverdict:     %s\n", prompt, out, ref, match)
	printRecovery(d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stagesrv:", err)
	os.Exit(1)
}
