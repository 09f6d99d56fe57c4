package tinyllm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// goldenCfg is perfbench's stage-chain model: 12 layers served at
// alternating 8- and 4-bit weights from seed 7.
var goldenCfg = Config{Name: "golden-chain", Layers: 12, Hidden: 64, Heads: 4, FFN: 192, Vocab: 192, MaxPos: 128}

// goldenForwardHash is the SHA-256 of every prefill logit, every decode
// logit and every greedy token the golden prompts produce. The forward
// pass must reproduce it bit for bit: a kernel change that reorders any
// float32 summation moves it. It was recorded on amd64 at the default
// GOAMD64=v1. Where the Go compiler fuses x*y+z into one rounding, as on
// arm64, the same code rounds differently, so the test runs on amd64
// only.
const goldenForwardHash = "d9d1db017cd37e26563ee83026fee083fa140bc756c6a98adfef2e5b96dea070"

func goldenModel(t testing.TB) *Model {
	t.Helper()
	m, err := New(goldenCfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]int, goldenCfg.Layers)
	for i := range bits {
		bits[i] = 8 >> (i % 2)
	}
	qm, err := m.ApplyBits(bits, quant.Scheme{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func hashMatrix(h io.Writer, m *tensor.Matrix) {
	buf := make([]byte, 4*len(m.Data))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	h.Write(buf)
}

func TestForwardGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	m := goldenModel(t)
	prompts := []struct {
		tokens []int
		n      int
	}{
		{[]int{42}, 12},
		{[]int{1, 2, 3, 4, 5, 6, 7, 8}, 16},
		{[]int{191, 0, 77, 13, 150, 64, 9, 120, 33, 5, 88, 17, 101, 2, 190, 60, 44, 71, 3, 129, 180, 6, 99}, 24},
	}
	h := sha256.New()
	for _, p := range prompts {
		logits, cache, err := m.Prefill(p.tokens)
		if err != nil {
			t.Fatal(err)
		}
		hashMatrix(h, logits)
		tok := tensor.ArgmaxRow(logits.Row(logits.Rows - 1))
		for i := 0; i < p.n; i++ {
			binary.Write(h, binary.LittleEndian, int32(tok))
			lg, err := m.DecodeStep(tok, cache)
			if err != nil {
				t.Fatal(err)
			}
			hashMatrix(h, lg)
			tok = tensor.ArgmaxRow(lg.Row(0))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenForwardHash {
		t.Fatalf("forward-pass hash = %s, want %s", got, goldenForwardHash)
	}
}

// TestPrefillIsCausal checks that the logits at position t depend only on
// tokens 0..t: changing every later token leaves rows 0..t bit-identical.
func TestPrefillIsCausal(t *testing.T) {
	m := goldenModel(t)
	base := []int{5, 17, 99, 3, 140, 66, 12, 180, 41, 7}
	want, _, err := m.Prefill(base)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(base)-1; cut++ {
		alt := append([]int(nil), base...)
		for i := cut + 1; i < len(alt); i++ {
			alt[i] = (alt[i] + 1 + i) % goldenCfg.Vocab
		}
		got, _, err := m.Prefill(alt)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r <= cut; r++ {
			for c, v := range got.Row(r) {
				if math.Float32bits(v) != math.Float32bits(want.At(r, c)) {
					t.Fatalf("changing tokens after %d moved logit (%d, %d): %v vs %v", cut, r, c, v, want.At(r, c))
				}
			}
		}
		next := tensor.FromSlice(1, goldenCfg.Vocab, got.Row(cut+1))
		if tensor.MaxAbsDiff(next, tensor.FromSlice(1, goldenCfg.Vocab, want.Row(cut+1))) == 0 {
			t.Fatalf("changing tokens after %d left position %d unchanged", cut, cut+1)
		}
	}
}

// TestForwardBlocksMatchesPrefill runs the golden model as two stages, a
// prefill and two decode steps, and checks every logit against the
// single-process pass bit for bit; an offset that disagrees with the
// stage's cache is rejected.
func TestForwardBlocksMatchesPrefill(t *testing.T) {
	m := goldenModel(t)
	seq := []int{11, 22, 33, 44, 55, 66}
	want, _, err := m.Prefill(seq)
	if err != nil {
		t.Fatal(err)
	}
	caches := []*KVCache{m.NewCache(), m.NewCache()}
	split := goldenCfg.Layers / 2
	forward := func(tokens []int, pos int) *tensor.Matrix {
		t.Helper()
		x, err := m.Embed(tokens, pos)
		if err != nil {
			t.Fatal(err)
		}
		for s, r := range [][2]int{{0, split}, {split, goldenCfg.Layers}} {
			if x, err = m.ForwardBlocks(r[0], r[1], x, caches[s], pos); err != nil {
				t.Fatal(err)
			}
		}
		return m.Logits(x)
	}
	got := forward(seq[:4], 0)
	for _, tok := range seq[4:] {
		got.Data = append(got.Data, forward([]int{tok}, got.Rows).Data...)
		got.Rows++
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("logit %d: stages %v, single pass %v", i, v, want.Data[i])
		}
	}
	x, err := m.Embed([]int{1}, len(seq))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{-1, 0, len(seq) - 1, len(seq) + 1} {
		if _, err := m.ForwardBlocks(split, goldenCfg.Layers, x, caches[1], off); err == nil {
			t.Fatalf("offset %d accepted with %d cached positions", off, len(seq))
		}
	}
}
