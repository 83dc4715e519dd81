// Package egress is the send stage of the replication library, shared by
// replicas and clients: it seals a protocol message — encodes the body once
// into a wire buffer and appends the authentication trailer computed over
// exactly those bytes — and hands the buffer to the transport.
//
// Everything runs on the caller's goroutine (a replica's event loop, a
// client's invoking goroutine): there is no queue between sealing and
// transmission, so messages leave in the order they were sent and each is
// sealed under the keys current when it leaves — a key refresh (§4.3.1)
// can never strand a message sealed under the keys it replaced.
package egress

import (
	"sync"
	"sync/atomic"

	"repro/internal/message"
	"repro/internal/transport"
)

// Kind selects the authentication trailer a send carries.
type Kind uint8

const (
	// Vector is the group authenticator: the vector of per-replica MACs
	// of §5.2 (or a signature in PK mode).
	Vector Kind = iota
	// Point is the single point-to-point MAC for the destination (or a
	// signature in PK mode).
	Point
	// Sign always signs (new-key and recovery traffic, §4.3.1: these must
	// verify regardless of session-key state).
	Sign
)

// BufCap is the initial capacity of a wire buffer: every fixed-size
// protocol message and its group authenticator fit, so the common send
// allocates once.
const BufCap = 512

// maxFree bounds the recycled wire buffers a Sender keeps.
const maxFree = 64

// Sealer produces wire encodings. Seal appends m's encoding — the body
// followed by the trailer kind calls for, computed over exactly those body
// bytes — to buf and returns the extended slice. It must not write into m.
type Sealer interface {
	Seal(buf []byte, kind Kind, dst message.NodeID, m message.Message) []byte
}

// Sender seals and transmits on its caller's goroutine. It is safe for
// concurrent use if its Sealer is.
type Sender struct {
	seal  Sealer
	trans transport.Transport
	// owned is trans's ownership-transferring surface, when it has one:
	// buffers handed over there come back through release and are reused.
	owned   transport.Multicaster
	release func([]byte)
	closed  atomic.Bool

	mu   sync.Mutex
	free [][]byte
}

// New returns a Sender that seals with seal and transmits on trans.
func New(seal Sealer, trans transport.Transport) *Sender {
	s := &Sender{seal: seal, trans: trans}
	if mc, ok := trans.(transport.Multicaster); ok {
		s.owned = mc
		s.release = s.recycle
	}
	return s
}

// Send seals m as kind for dst and transmits it to dst.
//
// bftlint:send
func (s *Sender) Send(dst message.NodeID, m message.Message, kind Kind) {
	if s.closed.Load() {
		return
	}
	wire := s.seal.Seal(s.buffer(), kind, dst, m)
	if s.owned == nil {
		s.trans.Send(dst, wire)
		return
	}
	s.owned.SendOwned(dst, wire, s.release)
}

// Multicast seals m once as kind and transmits it to every id in dsts.
//
// bftlint:send
func (s *Sender) Multicast(dsts []message.NodeID, m message.Message, kind Kind) {
	if s.closed.Load() {
		return
	}
	wire := s.seal.Seal(s.buffer(), kind, message.NoNode, m)
	if s.owned == nil {
		s.trans.Multicast(dsts, wire)
		return
	}
	s.owned.MulticastOwned(dsts, wire, s.release)
}

// SendRaw transmits pre-encoded bytes to dst unchanged: relays and
// retransmissions of messages other principals authored keep their
// original authenticators. The caller keeps ownership of raw.
//
// bftlint:send
func (s *Sender) SendRaw(dst message.NodeID, raw []byte) {
	if s.closed.Load() {
		return
	}
	s.trans.Send(dst, raw)
}

// MulticastRaw transmits pre-encoded bytes to every id in dsts unchanged.
//
// bftlint:send
func (s *Sender) MulticastRaw(dsts []message.NodeID, raw []byte) {
	if s.closed.Load() {
		return
	}
	s.trans.Multicast(dsts, raw)
}

// Close stops transmission: every later send is dropped. It does not close
// the transport.
func (s *Sender) Close() { s.closed.Store(true) }

// buffer returns an empty wire buffer, recycled when one is available.
func (s *Sender) buffer() []byte {
	if s.owned != nil {
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			b := s.free[n-1]
			s.free = s.free[:n-1]
			s.mu.Unlock()
			return b
		}
		s.mu.Unlock()
	}
	return make([]byte, 0, BufCap)
}

// recycle takes back a buffer the transport no longer references.
func (s *Sender) recycle(b []byte) {
	s.mu.Lock()
	if len(s.free) < maxFree {
		s.free = append(s.free, b[:0])
	}
	s.mu.Unlock()
}
