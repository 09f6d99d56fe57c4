package quant

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// bitPacker writes fixed-width unsigned integers into a dense []uint64,
// little-endian within each word, values straddling word boundaries. It
// is the storage of refQuantize, the packed round trip FuzzQuantDequant
// checks the fake quantizer against.
type bitPacker struct {
	bits  int
	words []uint64
	n     int // values written
}

// newBitPacker returns a packer for width-bit values, 1 ≤ width ≤ 32.
func newBitPacker(bits int) *bitPacker {
	if bits < 1 || bits > 32 {
		panic(fmt.Sprintf("quant: newBitPacker(%d)", bits))
	}
	return &bitPacker{bits: bits}
}

// Append writes v's low bits. Bits above the width are discarded.
func (p *bitPacker) Append(v uint32) {
	mask := uint64(1)<<p.bits - 1
	val := uint64(v) & mask
	bitPos := p.n * p.bits
	word := bitPos >> 6
	off := bitPos & 63
	for word >= len(p.words) {
		p.words = append(p.words, 0)
	}
	p.words[word] |= val << off
	if off+p.bits > 64 {
		p.words = append(p.words, 0)
		p.words[word+1] |= val >> (64 - off)
	}
	p.n++
}

// Finish freezes the packer into a read-only packedInts.
func (p *bitPacker) Finish() *packedInts {
	return &packedInts{bits: p.bits, words: p.words, n: p.n}
}

// packedInts is a read-only sequence of fixed-width unsigned integers.
type packedInts struct {
	bits  int
	words []uint64
	n     int
}

// Len returns the number of stored values.
func (p *packedInts) Len() int { return p.n }

// Bytes returns the storage footprint in bytes.
func (p *packedInts) Bytes() int64 { return int64(len(p.words)) * 8 }

// At returns the i-th stored value. It panics if i is out of range.
func (p *packedInts) At(i int) uint32 {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("quant: packedInts.At(%d) with %d values", i, p.n))
	}
	mask := uint64(1)<<p.bits - 1
	bitPos := i * p.bits
	word := bitPos >> 6
	off := bitPos & 63
	v := p.words[word] >> off
	if off+p.bits > 64 {
		v |= p.words[word+1] << (64 - off)
	}
	return uint32(v & mask)
}

func TestBitPackerRoundTrip(t *testing.T) {
	for _, bits := range []int{3, 4, 8, 13} {
		p := newBitPacker(bits)
		max := uint32(1)<<bits - 1
		vals := []uint32{0, 1, max, max / 2, 1, 0, max}
		for _, v := range vals {
			p.Append(v)
		}
		packed := p.Finish()
		if packed.Len() != len(vals) {
			t.Fatalf("bits=%d Len=%d want %d", bits, packed.Len(), len(vals))
		}
		for i, v := range vals {
			if got := packed.At(i); got != v {
				t.Fatalf("bits=%d At(%d)=%d want %d", bits, i, got, v)
			}
		}
	}
}

func TestBitPackerWordBoundary(t *testing.T) {
	// 3-bit values straddle the 64-bit boundary at value index 21 (63 bits).
	p := newBitPacker(3)
	for i := 0; i < 100; i++ {
		p.Append(uint32(i % 8))
	}
	packed := p.Finish()
	for i := 0; i < 100; i++ {
		if got := packed.At(i); got != uint32(i%8) {
			t.Fatalf("At(%d)=%d want %d", i, got, i%8)
		}
	}
}

func TestBitPackerMasksHighBits(t *testing.T) {
	p := newBitPacker(4)
	p.Append(0xFF) // only low 4 bits kept
	if got := p.Finish().At(0); got != 0xF {
		t.Fatalf("masked value = %d", got)
	}
}

func TestBitPackerStorageDensity(t *testing.T) {
	p := newBitPacker(3)
	n := 64000
	for i := 0; i < n; i++ {
		p.Append(5)
	}
	bytes := p.Finish().Bytes()
	// 64000 * 3 bits = 24000 bytes; allow one word of slack.
	if bytes < 24000 || bytes > 24008 {
		t.Fatalf("3-bit storage = %d bytes for %d values", bytes, n)
	}
}

func TestBitPackerRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		bits := []int{3, 4, 8}[r.Intn(3)]
		n := r.IntRange(1, 300)
		vals := make([]uint32, n)
		p := newBitPacker(bits)
		for i := range vals {
			vals[i] = uint32(r.Intn(1 << bits))
			p.Append(vals[i])
		}
		packed := p.Finish()
		for i, v := range vals {
			if packed.At(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedAtPanicsOutOfRange(t *testing.T) {
	p := newBitPacker(4)
	p.Append(1)
	packed := p.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	packed.At(1)
}
