package main

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/quant"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/tinyllm"
	"repro/internal/transport"
)

// The stage-chain workload: two transport.StageServers serve a quantised
// tinyllm over loopback TCP (one connection each, matching a 2-CPU
// machine), and one driver makes sequential Generate calls on seeded
// prompts. It exercises the real data plane — transport, tinyllm, tensor,
// quant — with no planner and no serve.
var chainCfg = tinyllm.Config{Name: "perfbench-chain", Layers: 12, Hidden: 64, Heads: 4, FFN: 192, Vocab: 192, MaxPos: 128}

const (
	chainModelSeed = 7
	chainPrompts   = 16
	// chainSplit is the first layer of the second stage.
	chainSplit = 6
)

// chainBits alternates 8- and 4-bit layers.
func chainBits() []int {
	bits := make([]int, chainCfg.Layers)
	for i := range bits {
		bits[i] = 8 >> (i % 2)
	}
	return bits
}

// warmupPrompt is the set-up generation; it is the same for every seed.
var warmupPrompt = []int{1, 2, 3, 4, 5, 6, 7, 8}

type chainPrompt struct {
	Tokens []int
	N      int
	want   []int
	// kind is the prompt's slot in the length grid.
	kind int
}

type chainWorkload struct {
	prompts []chainPrompt
	stages  []*transport.StageServer
	driver  *transport.Driver
	// rpcs counts the requests both stages decoded.
	rpcs atomic.Int64
	// local is the in-process quantised model the traced run times.
	local *tinyllm.Model
}

func (w *chainWorkload) name() string { return "stage-chain" }

func (w *chainWorkload) prepare(seed uint64) (uint64, error) {
	// Prompt and generation lengths are a fixed grid, so every seed does
	// the same amount of model work; the seed draws the tokens and the
	// order.
	rng := stats.NewRNG(seed)
	w.prompts = w.prompts[:0]
	for _, i := range rng.Perm(chainPrompts) {
		p := transport.RandomPrompt(rng, chainCfg.Vocab, 8+5*(i%8))
		n := 8 + 8*(i%4)
		want, err := transport.Reference(chainCfg, chainModelSeed, chainBits(), p, n)
		if err != nil {
			return 0, err
		}
		w.prompts = append(w.prompts, chainPrompt{Tokens: p, N: n, want: want, kind: i})
	}
	return fingerprint(w.prompts), nil
}

func (w *chainWorkload) setup(cfg runConfig) error {
	bits := chainBits()
	var addrs []string
	for _, r := range [][2]int{{0, chainSplit}, {chainSplit, chainCfg.Layers}} {
		s, err := transport.NewStageServer(chainCfg, chainModelSeed, bits, r[0], r[1])
		if err != nil {
			return err
		}
		s.SetRequestHook(func(*transport.Request) { w.rpcs.Add(1) })
		addr, err := s.Listen("127.0.0.1:0")
		w.stages = append(w.stages, s)
		if err != nil {
			return err
		}
		addrs = append(addrs, addr)
	}
	d, err := transport.NewDriver(chainCfg, chainModelSeed, addrs)
	if err != nil {
		return err
	}
	w.driver = d
	if _, err := d.Generate(warmupPrompt, 4); err != nil {
		return fmt.Errorf("warm-up generate: %w", err)
	}
	return nil
}

func (w *chainWorkload) teardown() {
	if w.driver != nil {
		w.driver.Close()
		w.driver = nil
	}
	for _, s := range w.stages {
		s.Close()
	}
	w.stages = nil
}

func (w *chainWorkload) block(idx int, m *meter, tr *tracer, o *outcome) error {
	for _, p := range w.prompts {
		o.attempted++
		op := tr.op()
		root := tr.begin(op, nil, "transport.generate")
		rpc0 := w.rpcs.Load()
		m.begin()
		got, err := w.driver.Generate(p.Tokens, p.N)
		m.end(p.kind, 1)
		root.end()
		root.set("tokens", float64(len(got)))
		root.set("rpcs", float64(w.rpcs.Load()-rpc0))
		switch {
		case err != nil:
			o.fail(1, "generate: %v", err)
		case !slices.Equal(got, p.want):
			o.fail(1, "generate returned %v, reference %v", got, p.want)
		case tr != nil:
			if err := w.traceLocal(tr, op, root, p); err != nil {
				o.fail(1, "in-process generate: %v", err)
			}
		}
	}
	return nil
}

// traceLocal runs the same generation on an in-process copy of the
// quantised model as child spans of the Generate span, so the transport's
// own cost is the Generate span's self time.
func (w *chainWorkload) traceLocal(tr *tracer, op int, root *span, p chainPrompt) error {
	if w.local == nil {
		m, err := tinyllm.New(chainCfg, chainModelSeed)
		if err != nil {
			return err
		}
		if w.local, err = m.ApplyBits(chainBits(), quant.Scheme{}, nil); err != nil {
			return err
		}
	}
	sp := tr.begin(op, root, "tinyllm.prefill")
	logits, cache, err := w.local.Prefill(p.Tokens)
	sp.end()
	if err != nil {
		return err
	}
	out := []int{tensor.ArgmaxRow(logits.Row(logits.Rows - 1))}
	sp = tr.begin(op, root, "tinyllm.decode")
	for pos := len(p.Tokens); len(out) < p.N && pos < chainCfg.MaxPos; pos++ {
		lg, err := w.local.DecodeStep(out[len(out)-1], cache)
		if err != nil {
			sp.end()
			return err
		}
		out = append(out, tensor.ArgmaxRow(lg.Row(0)))
	}
	sp.end()
	sp.set("steps", float64(len(out)-1))
	if !slices.Equal(out, p.want) {
		return fmt.Errorf("in-process tokens %v differ from reference %v", out, p.want)
	}
	return nil
}

func (w *chainWorkload) finish(o *outcome) {
	if w.driver == nil {
		return
	}
	if n := w.driver.RecoveryStats().Recoveries; n != 0 {
		o.fail(0, "transport recovered %d times on a fault-free loopback chain", n)
	}
	o.addBehaviour("tokens_per_op", float64(sumTokens(w.prompts))/float64(len(w.prompts)), "tok")
}

func sumTokens(ps []chainPrompt) int {
	n := 0
	for _, p := range ps {
		n += len(p.want)
	}
	return n
}
