package bits

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripFixedWidth(t *testing.T) {
	var w Writer
	values := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9}, {1 << 40, 41}, {0, 0},
	}
	for _, tc := range values {
		if err := w.WriteUint(tc.v, tc.width); err != nil {
			t.Fatalf("WriteUint(%d,%d): %v", tc.v, tc.width, err)
		}
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, tc := range values {
		got, err := r.ReadUint(tc.width)
		if err != nil {
			t.Fatalf("ReadUint(%d): %v", tc.width, err)
		}
		if got != tc.v {
			t.Fatalf("round trip = %d, want %d", got, tc.v)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d bits", r.Remaining())
	}
}

func TestWriteUintRejectsOverflow(t *testing.T) {
	var w Writer
	if err := w.WriteUint(8, 3); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow error = %v", err)
	}
	if err := w.WriteUint(1, 65); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("width error = %v", err)
	}
}

func TestSignedRoundTrip(t *testing.T) {
	var w Writer
	if err := w.WriteInt(-3, -10, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteInt(-10, -10, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteInt(-11, -10, 5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("below-bound error = %v", err)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, want := range []int64{-3, -10} {
		got, err := r.ReadInt(-10, 5)
		if err != nil || got != want {
			t.Fatalf("ReadInt = (%d, %v), want %d", got, err, want)
		}
	}
}

func TestVarRoundTrip(t *testing.T) {
	var w Writer
	vals := []uint64{0, 1, 2, 63, 64, 12345, 1 << 50}
	for _, v := range vals {
		if err := w.WriteVar(v); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, want := range vals {
		got, err := r.ReadVar()
		if err != nil || got != want {
			t.Fatalf("ReadVar = (%d, %v), want %d", got, err, want)
		}
	}
}

func TestShortRead(t *testing.T) {
	var w Writer
	if err := w.WriteUint(5, 3); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadUint(4); !errors.Is(err, ErrShortRead) {
		t.Fatalf("short read error = %v", err)
	}
}

func TestWidthFor(t *testing.T) {
	tests := []struct {
		max  uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}}
	for _, tc := range tests {
		if got := WidthFor(tc.max); got != tc.want {
			t.Fatalf("WidthFor(%d) = %d, want %d", tc.max, got, tc.want)
		}
	}
}

func TestCertificateEqual(t *testing.T) {
	var w1, w2 Writer
	if err := w1.WriteUint(5, 3); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteUint(5, 3); err != nil {
		t.Fatal(err)
	}
	c1, c2 := FromWriter(&w1), FromWriter(&w2)
	if !c1.Equal(c2) {
		t.Fatal("identical certificates unequal")
	}
	var w3 Writer
	if err := w3.WriteUint(4, 3); err != nil {
		t.Fatal(err)
	}
	if c1.Equal(FromWriter(&w3)) {
		t.Fatal("different certificates equal")
	}
	var w4 Writer
	if err := w4.WriteUint(5, 4); err != nil {
		t.Fatal(err)
	}
	if c1.Equal(FromWriter(&w4)) {
		t.Fatal("different-length certificates equal")
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(vals []uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var w Writer
		widths := make([]int, len(vals))
		for i, v := range vals {
			widths[i] = WidthFor(uint64(v)) + rng.Intn(8)
			if widths[i] > 64 {
				widths[i] = 64
			}
			if err := w.WriteUint(uint64(v), widths[i]); err != nil {
				return false
			}
		}
		r := NewReader(w.Bytes(), w.Len())
		for i, v := range vals {
			got, err := r.ReadUint(widths[i])
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitInterleaving(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	if err := w.WriteUint(0b1011, 4); err != nil {
		t.Fatal(err)
	}
	w.WriteBit(false)
	w.WriteBit(true)
	r := NewReader(w.Bytes(), w.Len())
	b, _ := r.ReadBit()
	if !b {
		t.Fatal("first bit")
	}
	v, _ := r.ReadUint(4)
	if v != 0b1011 {
		t.Fatalf("mid value = %b", v)
	}
	b1, _ := r.ReadBit()
	b2, _ := r.ReadBit()
	if b1 || !b2 {
		t.Fatal("tail bits")
	}
}

func TestLenCountsBits(t *testing.T) {
	var w Writer
	if err := w.WriteUint(1, 13); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 13 {
		t.Fatalf("Len = %d, want 13", w.Len())
	}
	c := FromWriter(&w)
	if c.Size() != 13 {
		t.Fatalf("Size = %d", c.Size())
	}
}

// putBitwise is the reference encoder: v's low width bits, MSB first,
// one WriteBit at a time.
func putBitwise(w *Writer, v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(v>>uint(i)&1 == 1)
	}
}

// TestWriterMatchesBitwise checks WriteUint and WriteVar against
// bit-at-a-time writes at every start offset 0-7 and every width 0-64,
// with a trailing write so the partial-byte state is checked too.
func TestWriterMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := func(width int) []uint64 {
		if width == 0 {
			return []uint64{0}
		}
		top := ^uint64(0) >> uint(64-width)
		return []uint64{0, 1, top, top >> 1, 1 << uint(width-1), rng.Uint64() & top, rng.Uint64() & top}
	}
	same := func(what string, off, width int, v uint64, got, want *Writer) {
		t.Helper()
		if got.Len() != want.Len() || string(got.Raw()) != string(want.Raw()) {
			t.Fatalf("%s(%#x) width %d at offset %d: %d bits %x, bitwise gives %d bits %x",
				what, v, width, off, got.Len(), got.Raw(), want.Len(), want.Raw())
		}
	}
	for off := 0; off < 8; off++ {
		prefix := rng.Uint64() & (1<<uint(off) - 1)
		for width := 0; width <= 64; width++ {
			for _, v := range values(width) {
				var got, want Writer
				putBitwise(&got, prefix, off)
				putBitwise(&want, prefix, off)
				if err := got.WriteUint(v, width); err != nil {
					t.Fatalf("WriteUint(%#x, %d): %v", v, width, err)
				}
				putBitwise(&want, v, width)
				putBitwise(&got, 0x5, 3)
				putBitwise(&want, 0x5, 3)
				same("WriteUint", off, width, v, &got, &want)

				got.Reset()
				want.Reset()
				putBitwise(&got, prefix, off)
				putBitwise(&want, prefix, off)
				n := bitLen(v)
				err := got.WriteVar(v)
				if n == 64 {
					if !errors.Is(err, ErrOutOfRange) || got.Len() != off {
						t.Fatalf("WriteVar(%#x): err %v, %d bits written", v, err, got.Len()-off)
					}
					continue
				}
				if err != nil {
					t.Fatalf("WriteVar(%#x): %v", v, err)
				}
				putBitwise(&want, uint64(n), 6)
				putBitwise(&want, v, n)
				putBitwise(&got, 0x5, 3)
				putBitwise(&want, 0x5, 3)
				same("WriteVar", off, width, v, &got, &want)
			}
		}
	}
}
