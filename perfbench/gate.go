package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro/bft"
	"repro/bft/kv"
	"repro/internal/quorum"
)

// The correctness gate. Every run ends here; a failed check fails the run.

// checkResult validates one reply against what its op must return.
func checkResult(o op, res []byte) error {
	switch o.kind {
	case opNoop, opWriteBlob:
		if len(res) != 0 {
			return fmt.Errorf("op %d: expected an empty result, got %d bytes", o.tag, len(res))
		}
	case opReadBlob:
		if len(res) != blobSize {
			return fmt.Errorf("op %d: read %d bytes, expected %d", o.tag, len(res), blobSize)
		}
	case opIncr:
		if len(res) != 8 {
			return fmt.Errorf("op %d: counter result of %d bytes", o.tag, len(res))
		}
	case opPut:
		if kv.DecodeStatus(res) != kv.StatusOK {
			return fmt.Errorf("op %d: put status %d", o.tag, kv.DecodeStatus(res))
		}
	}
	return nil
}

// replicaState is what the gate reads from one replica once the group has
// settled.
type replicaState struct {
	view     uint64
	lastExec uint64
	digest   bft.Digest
}

// checkAgreement requires the replicas to have executed the same prefix and
// to hold the same state. It allows one case PBFT's liveness model leaves
// open: up to f replicas may stop behind if each waits alone in a higher
// view than the rest, a view change no other replica joined and an idle
// group never completes. The other 2f+1 must still agree. It returns the
// replicas it found in that case.
func checkAgreement(states []replicaState) (lagging []int, err error) {
	if len(states) == 0 {
		return nil, errors.New("no replica to check")
	}
	var top, topView uint64
	for _, s := range states {
		top = max(top, s.lastExec)
	}
	ref, atTop := -1, 0
	for i, s := range states {
		if s.lastExec != top {
			continue
		}
		if ref < 0 {
			ref = i
		} else if s.digest != states[ref].digest {
			return nil, fmt.Errorf("replica %d state digest %v differs from replica %d's %v at seq %d", i, s.digest, ref, states[ref].digest, top)
		}
		topView = max(topView, s.view)
		atTop++
	}
	if need := quorum.Strong(quorum.F(len(states))); atTop < need {
		return nil, fmt.Errorf("only %d replicas reached seq %d, %d needed", atTop, top, need)
	}
	for i, s := range states {
		if s.lastExec == top {
			continue
		}
		if s.view <= topView {
			return nil, fmt.Errorf("replica %d stopped at seq %d in view %d, behind the group's seq %d in view %d", i, s.lastExec, s.view, top, topView)
		}
		lagging = append(lagging, i)
	}
	return lagging, nil
}

// settleGrace is how long the gate waits for every replica to reach the
// same LastExecuted before it judges the frontiers as they are.
const settleGrace = 10 * time.Second

// settle waits until the replicas' LastExecuted values stop changing, all
// equal or, after settleGrace, whatever they are, then reads their states.
func settle(rs []replica) []replicaState {
	start := time.Now()
	var prev []uint64
	for {
		cur := make([]uint64, len(rs))
		for i, r := range rs {
			cur[i] = r.LastExecuted()
		}
		stable := slices.Equal(cur, prev)
		allEqual := slices.Min(cur) == slices.Max(cur)
		if stable && (allEqual || time.Since(start) > settleGrace) || time.Since(start) > 3*settleGrace {
			break
		}
		prev = cur
		time.Sleep(20 * time.Millisecond)
	}
	states := make([]replicaState, len(rs))
	for i, r := range rs {
		states[i] = replicaState{view: r.View(), lastExec: r.LastExecuted(), digest: r.StateDigest()}
	}
	return states
}

// checkCounter is the exactly-once check of the Incr workload: every
// acknowledged Incr returned a distinct counter value, and the final
// counter counts each acknowledged Incr once. Requests that failed may or
// may not have executed, so they widen the upper bound.
func checkCounter(final uint64, acked int, returned []uint64, failed int) error {
	seen := make(map[uint64]bool, len(returned))
	for _, v := range returned {
		if v == 0 || v > final {
			return fmt.Errorf("an Incr returned %d, outside 1..%d", v, final)
		}
		if seen[v] {
			return fmt.Errorf("two Incrs returned %d: executed twice", v)
		}
		seen[v] = true
	}
	if final < uint64(acked) || final > uint64(acked+failed) {
		return fmt.Errorf("counter is %d after %d acknowledged Incrs (%d failed)", final, acked, failed)
	}
	return nil
}

// putHistory records every put per key: acknowledged ones with their
// invoke interval, and failed ones, whose effect is unknown.
type putHistory struct {
	mu     sync.Mutex
	acked  map[int][]putRec
	failed map[int][]uint64
}

type putRec struct {
	tag        uint64
	start, end time.Time
}

func newPutHistory() *putHistory {
	return &putHistory{acked: make(map[int][]putRec), failed: make(map[int][]uint64)}
}

func (h *putHistory) ack(o op, start, end time.Time) {
	h.mu.Lock()
	h.acked[o.key] = append(h.acked[o.key], putRec{tag: o.tag, start: start, end: end})
	h.mu.Unlock()
}

func (h *putHistory) fail(o op) {
	h.mu.Lock()
	h.failed[o.key] = append(h.failed[o.key], o.tag)
	h.mu.Unlock()
}

// allowed reports whether a read after every put resolved may return the
// value written by tag: a put no acknowledged put strictly follows (the
// last one, or one that overlapped it), or a failed put.
func (h *putHistory) allowed(key int, tag uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.failed[key] {
		if t == tag {
			return true
		}
	}
	recs := h.acked[key]
	for _, p := range recs {
		if p.tag != tag {
			continue
		}
		for _, q := range recs {
			if q.start.After(p.end) {
				return false
			}
		}
		return true
	}
	return false
}

// readBackSample is how many keys the keyed workload reads back.
const readBackSample = 64

// checkReadBack reads sampled keys through the read-only path and requires
// each to hold the value of its last acknowledged put.
func checkReadBack(inv invoker, h *putHistory, seed int64) error {
	r := rand.New(rand.NewPCG(uint64(seed), 3000))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < readBackSample; i++ {
		key := r.IntN(preloadKeys)
		res, err := inv.InvokeContext(ctx, kv.GetKey(keyName(key)), true)
		if err != nil {
			return fmt.Errorf("read back key %d: %w", key, err)
		}
		val, ok := kv.DecodeValue(res)
		if !ok || len(val) != putValueLen {
			return fmt.Errorf("read back key %d: status %d, %d-byte value", key, kv.DecodeStatus(res), len(val))
		}
		if tag := binary.LittleEndian.Uint64(val); !h.allowed(key, tag) {
			return fmt.Errorf("key %d holds the value of put %d, not its last acknowledged put", key, tag)
		}
	}
	return nil
}

// readCounter reads the Incr counter through the read-only path.
func readCounter(inv invoker) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := inv.InvokeContext(ctx, kv.Get(), true)
	if err != nil {
		return 0, fmt.Errorf("read counter: %w", err)
	}
	return kv.DecodeU64(res), nil
}
