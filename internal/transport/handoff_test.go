package transport

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestHandoffMatchesReference is the disaggregated-serving contract: a
// prefill chain produces the first token plus a token log, a decode
// chain with a *different* stage split resumes from the log, and the
// concatenated output equals one uninterrupted Reference generation.
func TestHandoffMatchesReference(t *testing.T) {
	const n = 16
	prompt := RandomPrompt(stats.NewRNG(7), cfg.Vocab, 12)

	// Prefill pool: two stages.
	preAddrs, preCleanup := startPipeline(t, nil, [][2]int{{0, 3}, {3, 6}})
	defer preCleanup()
	pre, err := NewDriver(cfg, seed, preAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()

	// Decode pool: three stages — a genuinely different chain.
	decAddrs, decCleanup := startPipeline(t, nil, [][2]int{{0, 2}, {2, 4}, {4, 6}})
	defer decCleanup()
	dec, err := NewDriver(cfg, seed, decAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()

	first, log, err := pre.GenerateLog(prompt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("prefill pool emitted %d tokens, want 1", len(first))
	}
	if len(log.Done) != 0 || log.Next != first[0] {
		t.Fatalf("pure-prefill log should carry only the pending first token: %+v", log)
	}
	rest, err := dec.Resume(log, n-1)
	if err != nil {
		t.Fatal(err)
	}

	want, err := Reference(cfg, seed, nil, prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]int(nil), first...), rest...)
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("token %d: handoff %d vs reference %d", i, got[i], want[i])
		}
	}
}

// TestHandoffMidDecode hands off after several decoded tokens (the
// producer's KV caches hold prompt + k−1 positions) and checks the
// quantized chains still splice bit-identically.
func TestHandoffMidDecode(t *testing.T) {
	bits := []int{4, 4, 8, 8, 16, 16}
	const k, n = 5, 14
	prompt := RandomPrompt(stats.NewRNG(11), cfg.Vocab, 9)

	preAddrs, preCleanup := startPipeline(t, bits, [][2]int{{0, 6}})
	defer preCleanup()
	pre, err := NewDriver(cfg, seed, preAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()

	decAddrs, decCleanup := startPipeline(t, bits, [][2]int{{0, 2}, {2, 6}})
	defer decCleanup()
	dec, err := NewDriver(cfg, seed, decAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()

	head, log, err := pre.GenerateLog(prompt, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Done) != k-1 {
		t.Fatalf("log forwarded %d tokens, want %d", len(log.Done), k-1)
	}
	if log.Positions() != len(prompt)+k-1 {
		t.Fatalf("log covers %d positions, want %d", log.Positions(), len(prompt)+k-1)
	}
	tail, err := dec.Resume(log, n-k)
	if err != nil {
		t.Fatal(err)
	}

	want, err := Reference(cfg, seed, bits, prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]int(nil), head...), tail...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: handoff %d vs reference %d", i, got[i], want[i])
		}
	}
}

// TestHandoffLogValidation exercises the malformed-log paths.
func TestHandoffLogValidation(t *testing.T) {
	addrs, cleanup := startPipeline(t, nil, [][2]int{{0, 6}})
	defer cleanup()
	d, err := NewDriver(cfg, seed, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := d.Resume(nil, 4); err == nil {
		t.Fatal("nil log accepted")
	}
	if _, err := d.Resume(&TokenLog{Next: 3}, 4); err == nil {
		t.Fatal("promptless log accepted")
	}
	if _, err := d.Resume(&TokenLog{Prompt: []int{1, 2}, Next: -1}, 4); err == nil {
		t.Fatal("log without pending token accepted")
	}
	if _, _, err := d.GenerateLog(nil, 1); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, _, err := d.GenerateLog([]int{1, 2}, 0); err == nil {
		t.Fatal("n=0 handoff accepted (no pending token to hand off)")
	}
}

// handoffChains lazily starts, per bit setting, a producer chain and a
// resuming chain with different layer splits, shared by every input of
// one fuzz run and closed when it ends.
type handoffChains struct {
	mu      sync.Mutex
	drivers map[bool][2]*Driver
	cleanup []func()
}

func (c *handoffChains) get(t *testing.T, quantised bool) (src, dst *Driver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ds, ok := c.drivers[quantised]; ok {
		return ds[0], ds[1]
	}
	var ds [2]*Driver
	for i, cuts := range [][][2]int{{{0, 3}, {3, 6}}, {{0, 2}, {2, 4}, {4, 6}}} {
		addrs, stop := startPipeline(t, handoffBits(quantised), cuts)
		c.cleanup = append(c.cleanup, stop)
		d, err := NewDriver(cfg, seed, addrs)
		if err != nil {
			t.Fatal(err)
		}
		c.cleanup = append(c.cleanup, d.Close)
		ds[i] = d
	}
	c.drivers[quantised] = ds
	return ds[0], ds[1]
}

func (c *handoffChains) close() {
	for i := len(c.cleanup) - 1; i >= 0; i-- {
		c.cleanup[i]()
	}
}

func handoffBits(quantised bool) []int {
	if quantised {
		return []int{4, 4, 8, 8, 16, 16}
	}
	return nil
}

// FuzzHandoffSplice: GenerateLog(k) on one chain spliced with
// Resume(n−k) on a differently split chain equals one Generate(n) and
// the in-process Reference exactly, and emits min(n, MaxPos − len(prompt)
// + 1) tokens in all — handoff neither loses nor invents a token, also
// when the generation runs into MaxPos before or after the handoff.
func FuzzHandoffSplice(f *testing.F) {
	// Args: prompt seed, prompt length, k, n, quantised. Lengths are
	// folded into range below: prompt length in [1, MaxPos], n in
	// [1, MaxPos+1], k in [1, n].
	f.Add(uint64(7), uint8(11), uint8(0), uint8(15), false) // k = 1: pure prefill handoff
	f.Add(uint64(11), uint8(8), uint8(4), uint8(13), true)  // mid-decode, quantised
	f.Add(uint64(3), uint8(9), uint8(19), uint8(19), false) // k = n: Resume emits nothing
	f.Add(uint64(5), uint8(59), uint8(2), uint8(40), true)  // MaxPos reached after the handoff
	f.Add(uint64(9), uint8(61), uint8(9), uint8(64), false) // MaxPos reached before the handoff
	f.Add(uint64(2), uint8(63), uint8(0), uint8(64), true)  // prompt fills MaxPos: one token
	chains := &handoffChains{drivers: map[bool][2]*Driver{}}
	f.Cleanup(chains.close)
	f.Fuzz(func(t *testing.T, promptSeed uint64, promptLen, kRaw, nRaw uint8, quantised bool) {
		prompt := RandomPrompt(stats.NewRNG(promptSeed), cfg.Vocab, 1+int(promptLen)%cfg.MaxPos)
		n := 1 + int(nRaw)%(cfg.MaxPos+1)
		k := 1 + int(kRaw)%n
		src, dst := chains.get(t, quantised)

		head, log, err := src.GenerateLog(prompt, k)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := dst.Resume(log, n-k)
		if err != nil {
			t.Fatal(err)
		}
		spliced := append(slices.Clip(head), tail...)
		whole, err := dst.Generate(prompt, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(cfg, seed, handoffBits(quantised), prompt, n)
		if err != nil {
			t.Fatal(err)
		}
		if count := min(n, cfg.MaxPos-len(prompt)+1); len(spliced) != count {
			t.Fatalf("prompt %d, k %d, n %d: handoff emitted %d tokens, want %d",
				len(prompt), k, n, len(spliced), count)
		}
		if !slices.Equal(spliced, whole) || !slices.Equal(spliced, want) {
			t.Fatalf("prompt %d, k %d, n %d:\nhandoff   %v\nGenerate  %v\nReference %v",
				len(prompt), k, n, spliced, whole, want)
		}
	})
}
