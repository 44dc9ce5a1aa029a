// Package bits implements bit-exact encoding of certificates. The paper's
// complexity measure is the number of *bits* per certificate, so schemes
// serialise certificates through this package and sizes are measured on
// the wire format rather than on in-memory structs.
//
// The format is a plain MSB-first bit stream. Writers append fields;
// readers consume them in the same order. Two integer encodings are
// provided: fixed-width (for fields whose bound is known to both sides,
// e.g. ranks in [0, 2n]) and a length-prefixed variable encoding (for
// identifiers from a polynomial range).
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
)

// ErrOutOfRange is returned when a value does not fit the declared width.
var ErrOutOfRange = errors.New("bits: value out of range")

// ErrShortRead is returned when a reader runs past the end of the stream.
var ErrShortRead = errors.New("bits: read past end of stream")

// Writer accumulates a bit stream. The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Reset empties the writer for reuse, keeping the underlying buffer so
// a pooled encoder (e.g. internal/wire's frame codec) does not allocate
// per message.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Raw returns the written bytes without copying (last byte zero-padded).
// The slice aliases the writer's buffer and is invalidated by the next
// write or Reset; callers that keep the stream use Bytes.
func (w *Writer) Raw() []byte { return w.buf }

// Bytes returns the stream as a byte slice (last byte zero-padded).
func (w *Writer) Bytes() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteUint appends v in exactly width bits (MSB first). It fails if v
// needs more than width bits or width is not in [0, 64].
func (w *Writer) WriteUint(v uint64, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("%w: width %d", ErrOutOfRange, width)
	}
	if width < 64 && v>>uint(width) != 0 {
		return fmt.Errorf("%w: %d does not fit in %d bits", ErrOutOfRange, v, width)
	}
	w.put(v, width)
	return nil
}

// put appends the low width bits of v, MSB first, filling the current
// partial byte and then up to eight bits per step: the certificate
// encoders write Θ(log n)-bit fields, and this is their inner loop.
func (w *Writer) put(v uint64, width int) {
	for width > 0 {
		free := 8 - w.nbit&7
		if free == 8 {
			w.buf = append(w.buf, 0)
		}
		take := min(free, width)
		width -= take
		chunk := byte(v >> uint(width) & (1<<uint(take) - 1))
		w.buf[len(w.buf)-1] |= chunk << uint(free-take)
		w.nbit += take
	}
}

// WriteInt appends a signed value shifted to unsigned by the caller-known
// lower bound: v must satisfy lo <= v < lo + 2^width.
func (w *Writer) WriteInt(v, lo int64, width int) error {
	if v < lo {
		return fmt.Errorf("%w: %d below lower bound %d", ErrOutOfRange, v, lo)
	}
	return w.WriteUint(uint64(v-lo), width)
}

// WriteVar appends v using a 6-bit length prefix followed by that many
// bits of payload. Cost: 6 + bitlen(v) bits — O(log v).
func (w *Writer) WriteVar(v uint64) error {
	n := bitLen(v)
	if err := w.WriteUint(uint64(n), 6); err != nil {
		return err
	}
	return w.WriteUint(v, n)
}

// WriteVarInt appends a signed value as a zigzag-mapped WriteVar, so
// small magnitudes of either sign stay O(log |v|) bits. The zigzag image
// must fit WriteVar's 63-bit payload bound: |v| < 2^62.
func (w *Writer) WriteVarInt(v int64) error {
	return w.WriteVar(uint64(v)<<1 ^ uint64(v>>63))
}

// Reader consumes a bit stream produced by Writer.
type Reader struct {
	buf  []byte
	pos  int
	nbit int
}

// NewReader returns a reader over the first nbits of buf.
func NewReader(buf []byte, nbits int) *Reader {
	return &Reader{buf: buf, nbit: nbits}
}

// Reset repoints r at the first nbits of buf and rewinds it, so one
// Reader can decode many certificates without allocating (the
// verification hot path reuses a Reader per worker).
func (r *Reader) Reset(buf []byte, nbits int) {
	r.buf = buf
	r.pos = 0
	r.nbit = nbits
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrShortRead
	}
	b := r.buf[r.pos/8]>>(7-uint(r.pos%8))&1 == 1
	r.pos++
	return b, nil
}

// ReadUint consumes width bits as an unsigned integer. It extracts
// whole bytes at a time: certificates are Θ(log n) bits, so the decode
// loop is the verification sweep's inner loop and a bit-by-bit read
// makes whole-network throughput decay with n.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("%w: width %d", ErrOutOfRange, width)
	}
	if r.pos+width > r.nbit {
		return 0, ErrShortRead
	}
	// Fast path: the whole field sits inside one aligned 8-byte load.
	if idx, off := r.pos>>3, r.pos&7; off+width <= 64 && idx+8 <= len(r.buf) {
		v := binary.BigEndian.Uint64(r.buf[idx:]) << uint(off) >> uint(64-width)
		r.pos += width
		return v, nil
	}
	var v uint64
	pos, rem := r.pos, width
	for rem > 0 {
		avail := 8 - pos&7
		take := avail
		if take > rem {
			take = rem
		}
		chunk := uint64(r.buf[pos>>3]) >> uint(avail-take) & (1<<uint(take) - 1)
		v = v<<uint(take) | chunk
		pos += take
		rem -= take
	}
	r.pos = pos
	return v, nil
}

// ReadInt consumes width bits and shifts by the lower bound lo.
func (r *Reader) ReadInt(lo int64, width int) (int64, error) {
	v, err := r.ReadUint(width)
	if err != nil {
		return 0, err
	}
	return lo + int64(v), nil
}

// ReadVar consumes a value written by WriteVar. Like ReadUint it
// decodes the whole field — length prefix and payload — from one
// 8-byte window when it fits, falling back to two reads otherwise.
func (r *Reader) ReadVar() (uint64, error) {
	pos := r.pos
	if idx, off := pos>>3, pos&7; idx+8 <= len(r.buf) {
		w := binary.BigEndian.Uint64(r.buf[idx:]) << uint(off)
		n := int(w >> 58)
		if off+6+n <= 64 && pos+6+n <= r.nbit {
			r.pos = pos + 6 + n
			return w << 6 >> uint(64-n), nil
		}
	}
	n, err := r.ReadUint(6)
	if err != nil {
		return 0, err
	}
	return r.ReadUint(int(n))
}

// ReadVarInt consumes a value written by WriteVarInt, reversing the
// zigzag mapping.
func (r *Reader) ReadVarInt() (int64, error) {
	u, err := r.ReadVar()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// bitLen returns the minimal number of bits to represent v (0 -> 0).
func bitLen(v uint64) int { return mathbits.Len64(v) }

// WidthFor returns the number of bits needed to represent values in
// [0, maxVal] — the fixed width both prover and verifier derive from a
// shared bound such as n.
func WidthFor(maxVal uint64) int {
	if maxVal == 0 {
		return 1
	}
	return bitLen(maxVal)
}

// Certificate couples a bit stream with its exact bit length.
type Certificate struct {
	Data []byte
	Bits int
}

// FromWriter snapshots w into a Certificate.
func FromWriter(w *Writer) Certificate {
	return Certificate{Data: w.Bytes(), Bits: w.Len()}
}

// Reader returns a reader over the certificate.
func (c Certificate) Reader() *Reader { return NewReader(c.Data, c.Bits) }

// ResetReader rewinds r onto the certificate, the allocation-free
// counterpart of Reader.
func (c Certificate) ResetReader(r *Reader) { r.Reset(c.Data, c.Bits) }

// Size returns the certificate size in bits (the paper's measure).
func (c Certificate) Size() int { return c.Bits }

// Equal reports whether two certificates carry identical bit streams.
func (c Certificate) Equal(o Certificate) bool {
	if c.Bits != o.Bits {
		return false
	}
	for i := range c.Data {
		if c.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}
