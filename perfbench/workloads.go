package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/bft"
	"repro/bft/kv"
)

// opKind classifies a generated operation; the correctness checks and the
// read/write latency split key off it.
type opKind uint8

const (
	opNoop opKind = iota
	opIncr
	opPut
	opReadBlob
	opWriteBlob
)

// op is one generated request. Every op carries an 8-byte tag: in bytes the
// service ignores for Noop, Incr and ReadBlob, and in the value written for
// Put and WriteBlob. The traced run links replica Execute spans to the
// client's invoke span through it; the untraced run sends the same bytes.
type op struct {
	kind     opKind
	bytes    []byte
	readOnly bool
	tag      uint64
	key      int // Put: index into the pre-loaded key set
}

const (
	blobSize    = 4096
	keyedRegion = 1 << 20 // 1 MiB keyed store
	preloadKeys = 4000    // load factor ≈ 0.74 of the store's 5439 slots
	putValueLen = 64
	blobReadPct = 80
)

// workload is one fixed traffic shape. Names are cited by later changes;
// keep them stable.
type workload struct {
	name string
	// closed is the number of closed-loop principals; zero means open loop
	// at rate ops/s over principals client principals.
	closed     int
	rate       float64
	principals int
	delay      time.Duration // one-way simulated link delay
	durable    bool          // write-ahead log on the file backend
	keyed      bool          // kv.KeyedFactory over a 1 MiB region, pre-loaded
	crash      bool          // kill the primary at 1/3, restart it at 2/3
	// rounds is how many clusters share the untraced window. A closed loop
	// is split into five so one noisy stretch cannot decide the run; an
	// open loop keeps the whole window, which its fault schedule needs.
	rounds int
	// next draws one op carrying tag from r.
	next func(r *rand.Rand, tag uint64) op
}

var workloads = []*workload{
	{
		name:   "noop-closed",
		closed: 32,
		rounds: 5,
		next:   func(_ *rand.Rand, tag uint64) op { return tagged(opNoop, kv.Noop(), tag) },
	},
	{
		name:    "kvput-durable",
		closed:  32,
		rounds:  5,
		durable: true,
		keyed:   true,
		next:    nextPut,
	},
	{
		name:       "blob-mixed-open",
		rate:       1000,
		principals: 64,
		rounds:     1,
		delay:      time.Millisecond,
		next:       nextBlob,
	},
	{
		name:       "primary-crash",
		rate:       500,
		principals: 320,
		rounds:     1,
		delay:      time.Millisecond,
		durable:    true,
		crash:      true,
		next:       func(_ *rand.Rand, tag uint64) op { return tagged(opIncr, kv.Incr(), tag) },
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// maxClients sizes the offline key setup: every principal the run attaches,
// plus the principals the set-up and the correctness gate use.
func (w *workload) maxClients() int {
	return w.poolSize() + 8
}

// poolSize is the number of client principals the load generator uses.
func (w *workload) poolSize() int {
	if w.closed > 0 {
		return w.closed
	}
	return w.principals
}

// options are the bft.Options every replica and client of the workload
// share. dir is the write-ahead log root for durable workloads.
func (w *workload) options(seed int64, dir string) bft.Options {
	o := bft.Options{
		Replicas:   4,
		Mode:       bft.BFT,
		MaxClients: w.maxClients(),
		Seed:       seed,
	}
	if w.keyed {
		o.StateSize = keyedRegion
	}
	if w.durable {
		o.Durable = true
		o.Dir = dir
	}
	return o
}

func (w *workload) factory() bft.ServiceFactory {
	if w.keyed {
		return kv.KeyedFactory
	}
	return kv.Factory
}

// tagged appends the tag to an op whose trailing bytes the service ignores.
func tagged(k opKind, b []byte, tag uint64) op {
	return op{kind: k, bytes: binary.LittleEndian.AppendUint64(b, tag), tag: tag}
}

func keyName(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }

// putValue is a 64-byte value whose first eight bytes are the tag.
func putValue(r *rand.Rand, tag uint64) []byte {
	v := make([]byte, putValueLen)
	binary.LittleEndian.PutUint64(v, tag)
	for i := 8; i < len(v); i += 8 {
		binary.LittleEndian.PutUint64(v[i:], r.Uint64())
	}
	return v
}

func putOp(r *rand.Rand, key int, tag uint64) op {
	return op{
		kind:  opPut,
		bytes: kv.Put(tag, keyName(key), putValue(r, tag)),
		tag:   tag,
		key:   key,
	}
}

func nextPut(r *rand.Rand, tag uint64) op { return putOp(r, r.IntN(preloadKeys), tag) }

func nextBlob(r *rand.Rand, tag uint64) op {
	if r.IntN(100) < blobReadPct {
		o := tagged(opReadBlob, kv.ReadBlob(blobSize), tag)
		o.readOnly = true
		return o
	}
	data := make([]byte, blobSize)
	binary.LittleEndian.PutUint64(data, tag)
	for i := 8; i < len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], r.Uint64())
	}
	return op{kind: opWriteBlob, bytes: kv.WriteBlob(data), tag: tag}
}

// tagOf recovers the request tag from an op's bytes, as the traced service
// wrapper sees them; zero means the op carries no tag (set-up reads).
func tagOf(b []byte) uint64 {
	if len(b) == 0 {
		return 0
	}
	var at int
	switch b[0] {
	case 0x00, 0x01, 0x03: // Noop, Incr, WriteBlob
		at = 1
	case 0x04: // ReadBlob: opcode, u32 length, tag
		at = 5
	case 0x20: // Put: opcode, u64 now, key length, key, u16 value length, value
		if len(b) < 10 {
			return 0
		}
		at = 10 + int(b[9]) + 2
	default:
		return 0
	}
	if len(b) < at+8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[at:])
}

// stream is one deterministic op source: its own generator seeded from the
// run seed and the stream id, and tags unique across streams.
type stream struct {
	w   *workload
	r   *rand.Rand
	id  uint64
	seq uint64
}

func newStream(w *workload, seed int64, id uint64) *stream {
	return &stream{w: w, r: rand.New(rand.NewPCG(uint64(seed), id)), id: id}
}

func (s *stream) next() op { return s.w.next(s.r, s.nextTag()) }

// nextTag returns the stream's next request tag.
func (s *stream) nextTag() uint64 {
	s.seq++
	return s.id<<40 | s.seq
}
