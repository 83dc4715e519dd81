package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/bft"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Span kinds. The invoke span is the root of a request; the replicas'
// Execute spans are its children, linked by the request tag. Admit
// (transport receive handler), WAL and checkpoint-snapshot spans carry a
// replica id but no request link.
const (
	spanInvoke uint8 = iota
	spanExecute
	spanAdmit
	spanWALWrite
	spanWALSync
	spanSnapshot
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"invoke", "execute", "admit", "wal.write", "wal.sync", "checkpoint.snapshot"}

// span is one recorded interval, in nanoseconds since the tracer's epoch.
type span struct {
	kind       uint8
	msg        message.Type // admit spans: the datagram's wire type
	node       int32        // replica id; -1 for invoke spans
	tag        uint64       // request tag of invoke and Execute spans
	start, end int64
}

// maxSpans bounds the spans kept in memory; later spans still feed the
// per-kind totals, only the record is dropped.
const maxSpans = 1 << 17

// admitSampleEvery keeps one admit span in this many: transport spans are
// per datagram and would crowd out the request spans. Totals count all.
const admitSampleEvery = 64

// tracer records spans and per-layer counters from the benchmark's own
// wrappers around the public seams: the network, the service and the WAL
// backend. It records only while active, which is the measured window.
type tracer struct {
	epoch  time.Time
	active atomic.Bool

	mu    sync.Mutex
	spans []span

	count [numSpanKinds]atomic.Int64
	total [numSpanKinds]atomic.Int64 // ns
	admit atomic.Int64               // admit spans seen, for sampling

	msgs   [256]atomic.Int64 // datagrams sent, by wire type tag
	bytes  atomic.Int64
	sendsN atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record adds a finished span.
func (t *tracer) record(s span) {
	if !t.active.Load() {
		return
	}
	t.count[s.kind].Add(1)
	t.total[s.kind].Add(s.end - s.start)
	if s.kind == spanAdmit && t.admit.Add(1)%admitSampleEvery != 0 {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

func (t *tracer) countSend(payload []byte, dsts int) {
	if !t.active.Load() || len(payload) == 0 {
		return
	}
	t.msgs[payload[0]].Add(int64(dsts))
	t.sendsN.Add(int64(dsts))
	t.bytes.Add(int64(len(payload) * dsts))
}

// snapshot returns the kept spans; call it after the window closes.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// --- network wrapper ------------------------------------------------------

// tracedNet wraps a bft.Network: it counts every datagram sent, by wire
// type, and times each replica's receive handler (ingress admission).
type tracedNet struct {
	inner bft.Network
	t     *tracer
}

func (n *tracedNet) Attach(id message.NodeID, h transport.Handler) transport.Transport {
	if !id.IsClient() {
		inner, t, node := h, n.t, int32(id)
		h = func(p []byte) {
			start := t.now()
			var typ message.Type
			if len(p) > 0 {
				typ = message.Type(p[0])
			}
			inner(p)
			t.record(span{kind: spanAdmit, msg: typ, node: node, start: start, end: t.now()})
		}
	}
	tr := n.inner.Attach(id, h)
	base := &tracedTransport{inner: tr, t: n.t}
	if mc, ok := tr.(transport.Multicaster); ok {
		// Egress hands owned buffers to a Multicaster; hiding it would
		// change how replicas send.
		return &tracedMulticaster{tracedTransport: base, mc: mc}
	}
	return base
}

type tracedTransport struct {
	inner transport.Transport
	t     *tracer
}

func (tt *tracedTransport) Self() message.NodeID { return tt.inner.Self() }

func (tt *tracedTransport) Send(dst message.NodeID, payload []byte) {
	tt.t.countSend(payload, 1)
	tt.inner.Send(dst, payload)
}

func (tt *tracedTransport) Multicast(dsts []message.NodeID, payload []byte) {
	tt.t.countSend(payload, len(dsts))
	tt.inner.Multicast(dsts, payload)
}

func (tt *tracedTransport) Close() { tt.inner.Close() }

type tracedMulticaster struct {
	*tracedTransport
	mc transport.Multicaster
}

func (tm *tracedMulticaster) MulticastOwned(dsts []message.NodeID, payload []byte, release func([]byte)) {
	tm.t.countSend(payload, len(dsts))
	tm.mc.MulticastOwned(dsts, payload, release)
}

func (tm *tracedMulticaster) SendOwned(dst message.NodeID, payload []byte, release func([]byte)) {
	tm.t.countSend(payload, 1)
	tm.mc.SendOwned(dst, payload, release)
}

// --- service wrapper ------------------------------------------------------

// tracedService times the replica's Execute upcalls.
type tracedService struct {
	bft.Service
	t    *tracer
	node int32
}

func (s *tracedService) Execute(client message.NodeID, op, nondet []byte) []byte {
	start := s.t.now()
	res := s.Service.Execute(client, op, nondet)
	s.t.record(span{kind: spanExecute, node: s.node, tag: tagOf(op), start: start, end: s.t.now()})
	return res
}

func tracedFactory(f bft.ServiceFactory, t *tracer, node int) bft.ServiceFactory {
	return func(r *bft.Region) bft.Service {
		return &tracedService{Service: f(r), t: t, node: int32(node)}
	}
}

// --- WAL backend wrapper --------------------------------------------------

// tracedBackend wraps one replica's wal.Backend. It times segment writes,
// every Sync and every snapshot write (a stable checkpoint), and forwards
// each call unchanged.
type tracedBackend struct {
	wal.Backend
	t    *tracer
	node int32
}

func (b *tracedBackend) OpenAppend(base uint64, size int64) (wal.SegmentWriter, error) {
	w, err := b.Backend.OpenAppend(base, size)
	if err != nil {
		return nil, err
	}
	return &tracedSegment{inner: w, b: b}, nil
}

func (b *tracedBackend) WriteSnapshot(seq uint64, data []byte) error {
	start := b.t.now()
	err := b.Backend.WriteSnapshot(seq, data)
	b.t.record(span{kind: spanSnapshot, node: b.node, start: start, end: b.t.now()})
	return err
}

type tracedSegment struct {
	inner wal.SegmentWriter
	b     *tracedBackend
}

func (s *tracedSegment) Write(p []byte) (int, error) {
	start := s.b.t.now()
	n, err := s.inner.Write(p)
	s.b.t.record(span{kind: spanWALWrite, node: s.b.node, start: start, end: s.b.t.now()})
	return n, err
}

func (s *tracedSegment) Sync() error {
	start := s.b.t.now()
	err := s.inner.Sync()
	s.b.t.record(span{kind: spanWALSync, node: s.b.node, start: start, end: s.b.t.now()})
	return err
}

func (s *tracedSegment) Close() error { return s.inner.Close() }

// --- analysis -------------------------------------------------------------

// selfTimes returns each invoke span's self time: its duration minus the
// part of it that its Execute children (linked by tag) cover. It also
// reports how many Execute spans found their invoke span.
func selfTimes(spans []span) (self []time.Duration, linked, executes int) {
	children := executeChildren(spans)
	for _, kids := range children {
		executes += len(kids)
	}
	for _, s := range spans {
		if s.kind != spanInvoke {
			continue
		}
		kids := children[s.tag]
		linked += len(kids)
		self = append(self, time.Duration(s.end-s.start-covered(s, kids)))
	}
	return self, linked, executes
}

// executeChildren groups the tagged Execute spans by request tag.
func executeChildren(spans []span) map[uint64][]span {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.kind == spanExecute && s.tag != 0 {
			children[s.tag] = append(children[s.tag], s)
		}
	}
	return children
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return sum + curHi - curLo
}

// durations returns the kept spans' durations of one kind.
func durations(spans []span, kind uint8) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.kind == kind {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes the kept spans as JSON lines, each with its self time
// (invoke spans: minus the Execute time they cover; other spans have no
// children, so self time is their duration).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	children := executeChildren(spans)
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		self := s.end - s.start
		parent, typ := "", ""
		switch s.kind {
		case spanAdmit:
			typ = s.msg.String()
		case spanInvoke:
			self -= covered(s, children[s.tag])
		case spanExecute:
			if s.tag != 0 {
				parent = fmt.Sprintf("invoke:%d", s.tag)
			}
		}
		rec := struct {
			Name    string `json:"name"`
			Type    string `json:"type,omitempty"`
			Node    int32  `json:"node"`
			Tag     uint64 `json:"tag,omitempty"`
			Parent  string `json:"parent,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			SelfNs  int64  `json:"self_ns"`
		}{spanNames[s.kind], typ, s.node, s.tag, parent, s.start, s.end, self}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
