// Package message defines every wire message of the BFT protocol family
// (BFT-PK, BFT, BFT-PR) together with a compact hand-rolled binary codec.
//
// The layout follows Figure 6-1 of the thesis in spirit: a one-byte type tag,
// a fixed type-specific header, a variable payload, and an authentication
// trailer (authenticator, point-to-point MAC, or signature). Marshal always
// produces body||auth so that the authentication payload of a message is
// exactly the body prefix, mirroring the thesis's "MACs are computed only
// over the fixed-size header" optimization at the granularity we need.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypto"
)

// ErrTruncated is returned when decoding runs out of bytes.
var ErrTruncated = errors.New("message: truncated encoding")

// ErrBadTag is returned when the type tag is unknown.
var ErrBadTag = errors.New("message: unknown type tag")

// maxSliceLen bounds decoded slice lengths to keep a malicious peer from
// causing huge allocations (a §5.5 denial-of-service defense).
const maxSliceLen = 1 << 26

// writer is an append-only encoder.
type writer struct{ b []byte }

func newWriter(sizeHint int) *writer { return &writer{b: make([]byte, 0, sizeHint)} }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) digest(d crypto.Digest) { w.b = append(w.b, d[:]...) }
func (w *writer) mac(m crypto.MAC)       { w.b = append(w.b, m[:]...) }

// bytes writes a length-prefixed byte slice.
func (w *writer) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// AppendPayload appends m's body — the exact bytes MACs and signatures
// cover, identical to Payload() — to dst and returns the extended slice.
// The send path encodes the body once into the wire buffer with it.
func AppendPayload(dst []byte, m Message) []byte {
	w := &writer{b: dst}
	m.(bodyCodec).marshalBody(w)
	return w.b
}

// AppendAuth appends an authentication trailer to dst and returns the
// extended slice. AppendPayload followed by AppendAuth produces the same
// bytes as Marshal, but with a caller-chosen trailer: the send path seals
// messages without writing into the message object.
func AppendAuth(dst []byte, a *Auth) []byte {
	w := &writer{b: dst}
	a.marshal(w)
	return w.b
}

// reader is a sticky-error decoder.
type reader struct {
	b   []byte
	off int
	err error
}

func newReader(b []byte) *reader { return &reader{b: b} }

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) digest() crypto.Digest {
	var d crypto.Digest
	if r.err != nil || r.off+crypto.DigestSize > len(r.b) {
		r.fail()
		return d
	}
	copy(d[:], r.b[r.off:])
	r.off += crypto.DigestSize
	return d
}

func (r *reader) mac() crypto.MAC {
	var m crypto.MAC
	if r.err != nil || r.off+crypto.MACSize > len(r.b) {
		r.fail()
		return m
	}
	copy(m[:], r.b[r.off:])
	r.off += crypto.MACSize
	return m
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxSliceLen || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	p := make([]byte, n)
	copy(p, r.b[r.off:])
	r.off += n
	return p
}

// sliceLen reads and validates a count of fixed-size records.
func (r *reader) sliceLen(recordSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || recordSize <= 0 || n > maxSliceLen/recordSize || r.off+n*recordSize > len(r.b) {
		r.fail()
		return 0
	}
	return n
}

// remaining returns the undecoded suffix.
func (r *reader) remaining() []byte { return r.b[r.off:] }

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("message: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
