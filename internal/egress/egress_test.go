package egress

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/message"
	"repro/internal/transport"
)

// fakeTransport records every transmitted datagram in order.
type fakeTransport struct {
	mu    sync.Mutex
	wires [][]byte
	dsts  []message.NodeID
}

func (t *fakeTransport) Self() message.NodeID { return 0 }
func (t *fakeTransport) Send(dst message.NodeID, p []byte) {
	t.mu.Lock()
	t.wires = append(t.wires, append([]byte(nil), p...))
	t.dsts = append(t.dsts, dst)
	t.mu.Unlock()
}
func (t *fakeTransport) Multicast(dsts []message.NodeID, p []byte) {
	t.mu.Lock()
	t.wires = append(t.wires, append([]byte(nil), p...))
	t.dsts = append(t.dsts, message.NoNode)
	t.mu.Unlock()
}
func (t *fakeTransport) Close() {}

func (t *fakeTransport) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.wires)
}

// ownedTransport additionally implements transport.Multicaster, releasing
// every buffer immediately (udpnet's behavior).
type ownedTransport struct {
	fakeTransport
	released atomic.Uint64
	bufs     map[*byte]bool // distinct backing arrays handed over
}

func (t *ownedTransport) note(p []byte) {
	t.mu.Lock()
	if t.bufs == nil {
		t.bufs = make(map[*byte]bool)
	}
	t.bufs[&p[:1][0]] = true
	t.mu.Unlock()
}

func (t *ownedTransport) MulticastOwned(dsts []message.NodeID, p []byte, release func([]byte)) {
	t.note(p)
	t.Multicast(dsts, p)
	if release != nil {
		release(p)
		t.released.Add(1)
	}
}

func (t *ownedTransport) SendOwned(dst message.NodeID, p []byte, release func([]byte)) {
	t.note(p)
	t.Send(dst, p)
	if release != nil {
		release(p)
		t.released.Add(1)
	}
}

// fakeSealer encodes a Commit's sequence number followed by the current key
// as the wire bytes.
type fakeSealer struct {
	key   atomic.Uint64
	seals atomic.Uint64
}

func (s *fakeSealer) Seal(buf []byte, kind Kind, dst message.NodeID,
	m message.Message) []byte {
	s.seals.Add(1)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.(*message.Commit).Seq))
	return binary.LittleEndian.AppendUint64(buf, s.key.Load())
}

func commitMsg(seq uint64) *message.Commit { return &message.Commit{Seq: message.Seq(seq)} }

func TestEgressOrderPreserved(t *testing.T) {
	// Sends reach the transport in exactly the order they were made.
	const n = 500
	ft := &fakeTransport{}
	s := New(&fakeSealer{}, ft)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			s.Send(1, commitMsg(uint64(i)), Vector)
		} else {
			s.Multicast([]message.NodeID{1, 2, 3}, commitMsg(uint64(i)), Vector)
		}
	}
	if got := ft.count(); got != n {
		t.Fatalf("transport saw %d sends, want %d", got, n)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for i, w := range ft.wires {
		if got := binary.LittleEndian.Uint64(w); got != uint64(i) {
			t.Fatalf("send %d carried seq %d: order not preserved", i, got)
		}
	}
}

func TestEgressResealOnRotation(t *testing.T) {
	// Each send is sealed as it leaves, so every send after a key rotation
	// carries the new key and none carries a key it replaced — without
	// sealing anything twice.
	ft := &fakeTransport{}
	fs := &fakeSealer{}
	s := New(fs, ft)
	fs.key.Store(6)
	const n = 50
	for i := 0; i < n; i++ {
		s.Send(1, commitMsg(uint64(i)), Vector)
	}
	fs.key.Store(7) // rotation
	for i := n; i < 2*n; i++ {
		s.Send(1, commitMsg(uint64(i)), Vector)
	}
	if got := fs.seals.Load(); got != 2*n {
		t.Fatalf("sealer invoked %d times, want %d (one seal per send)", got, 2*n)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for i, w := range ft.wires {
		want := uint64(6)
		if i >= n {
			want = 7
		}
		if seq, key := binary.LittleEndian.Uint64(w), binary.LittleEndian.Uint64(w[8:]); seq != uint64(i) || key != want {
			t.Fatalf("send %d carried seq %d key %d, want seq %d key %d", i, seq, key, i, want)
		}
	}
}

func TestEgressRawBypassesSealer(t *testing.T) {
	// Raw sends carry pre-encoded bytes: the sealer never runs and the
	// bytes arrive untouched, ordered with sealed traffic.
	ft := &fakeTransport{}
	fs := &fakeSealer{}
	s := New(fs, ft)
	raw := []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}
	s.Send(1, commitMsg(7), Vector)
	s.SendRaw(2, raw)
	s.MulticastRaw([]message.NodeID{1, 2, 3}, raw)
	if got := ft.count(); got != 3 {
		t.Fatalf("transport saw %d sends, want 3", got)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if binary.LittleEndian.Uint64(ft.wires[0]) != 7 {
		t.Fatalf("sealed send out of order: % x", ft.wires[0])
	}
	for i := 1; i < 3; i++ {
		if string(ft.wires[i]) != string(raw) {
			t.Fatalf("raw bytes modified in flight: % x", ft.wires[i])
		}
	}
	if fs.seals.Load() != 1 {
		t.Fatalf("sealer ran %d times, want 1", fs.seals.Load())
	}
}

func TestEgressUsesOwnedSurface(t *testing.T) {
	// A transport implementing Multicaster receives buffers through the
	// owned surface and its releases recycle them: a sender that gets every
	// buffer back reuses one backing array.
	ot := &ownedTransport{}
	s := New(&fakeSealer{}, ot)
	const n = 20
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			s.Multicast([]message.NodeID{1, 2, 3}, commitMsg(uint64(i)), Vector)
		} else {
			s.Send(1, commitMsg(uint64(i)), Point)
		}
	}
	if got := ot.count(); got != n {
		t.Fatalf("transport saw %d sends, want %d", got, n)
	}
	if got := ot.released.Load(); got != n {
		t.Fatalf("released %d buffers, want %d", got, n)
	}
	if got := len(ot.bufs); got != 1 {
		t.Fatalf("%d distinct wire buffers for %d released sends, want 1", got, n)
	}
}

func TestEgressCloseStopsTransmission(t *testing.T) {
	ft := &fakeTransport{}
	s := New(&fakeSealer{}, ft)
	s.Send(1, commitMsg(1), Vector)
	s.Close()
	s.Send(1, commitMsg(2), Vector)
	s.Multicast([]message.NodeID{1, 2}, commitMsg(3), Vector)
	s.SendRaw(1, []byte{1})
	s.MulticastRaw([]message.NodeID{1, 2}, []byte{1})
	if got := ft.count(); got != 1 {
		t.Fatalf("transport saw %d sends, want only the one before Close", got)
	}
	var _ transport.Transport = ft // the fake really is a Transport
}
