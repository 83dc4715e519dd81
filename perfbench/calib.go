package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/statemachine"
)

// Layer calibration: ns/op and allocs/op of the public functions the hot
// path calls, on inputs the size of the workloads' messages, so a change
// to one layer shows at that layer as well as end to end.

// calibRounds is how many timed rounds each function gets; the median
// round is reported.
const calibRounds = 5

// sink keeps results alive so the calls are not optimized away.
var sink any

// bench times fn and counts its allocations. It sizes a round to about
// round, runs calibRounds of them, and returns the median ns/op and the
// allocations per op of the median-time round.
func bench(round time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if el := time.Since(start); el >= round/4 || iters >= 1<<24 {
			iters = max(1, int(float64(iters)*float64(round)/float64(max(el, time.Microsecond))))
			break
		}
		iters *= 4
	}
	type timed struct{ ns, allocs float64 }
	rounds := make([]timed, calibRounds)
	var before, after runtime.MemStats
	for r := range rounds {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		rounds[r] = timed{
			ns:     float64(el.Nanoseconds()) / float64(iters),
			allocs: float64(after.Mallocs-before.Mallocs) / float64(iters),
		}
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].ns < rounds[j].ns })
	mid := rounds[len(rounds)/2]
	return mid.ns, mid.allocs
}

// calibrationInputs are the messages the calibration marshals, shaped like
// the workloads': a 16-digest pre-prepare (a full batch of separately
// transmitted requests), a prepare, and a tagged 0/0 request, each with a
// four-replica MAC vector.
func calibrationInputs() (pp *message.PrePrepare, prep *message.Prepare, req *message.Request) {
	vec := func() message.Auth {
		return message.Auth{Kind: message.AuthVector, Vector: crypto.Authenticator{MACs: make([]crypto.MAC, 4)}}
	}
	pp = &message.PrePrepare{View: 1, Seq: 1000, Replica: 1, Auth: vec()}
	for i := 0; i < 16; i++ {
		pp.Digests = append(pp.Digests, crypto.DigestOf([]byte{byte(i)}))
	}
	prep = &message.Prepare{View: 1, Seq: 1000, Digest: pp.BatchDigest(), Replica: 2, Auth: vec()}
	req = &message.Request{
		Client:    message.ClientIDBase,
		Timestamp: 42,
		Replier:   message.NoNode,
		Op:        tagged(opNoop, []byte{0}, 1).bytes,
		Auth:      vec(),
	}
	return pp, prep, req
}

// calibrate runs every calibration, in rounds of about round, and returns
// its metrics.
func calibrate(round time.Duration) []metric {
	var out []metric
	add := func(name string, fn func(), withAllocs bool) {
		ns, allocs := bench(round, fn)
		out = append(out, metric{name + "_ns", "ns", ns})
		if withAllocs {
			out = append(out, metric{name + "_allocs", "allocs/op", allocs})
		}
	}

	// crypto: MACs over a prepare's payload, authenticators for n=4, and
	// SHA-256 over a 4 KiB blob.
	pp, prep, req := calibrationInputs()
	payload := prep.Payload()
	key := crypto.DeriveKey("session", 1, 0)
	add("crypto.mac", func() { sink = crypto.ComputeMAC(key, payload) }, true)
	sender, receiver := crypto.NewKeyStore(1), crypto.NewKeyStore(0)
	for p := uint32(0); p < 4; p++ {
		sender.InstallInitial(p)
		receiver.InstallInitial(p)
	}
	add("crypto.authenticator", func() { sink = sender.MakeAuthenticator(4, payload) }, false)
	auth := sender.MakeAuthenticator(4, payload)
	add("crypto.check_authenticator", func() {
		if !receiver.CheckAuthenticator(1, payload, auth) {
			panic("perfbench: calibration authenticator does not verify")
		}
	}, false)
	blob := make([]byte, blobSize)
	add("crypto.digest_4k", func() { sink = crypto.DigestOf(blob) }, false)

	// message codec.
	for _, m := range []struct {
		name string
		msg  message.Message
	}{{"preprepare", pp}, {"prepare", prep}, {"request", req}} {
		raw := m.msg.Marshal()
		add("message.marshal_"+m.name, func() { sink = m.msg.Marshal() }, true)
		add("message.unmarshal_"+m.name, func() {
			var err error
			if sink, err = message.Unmarshal(raw); err != nil {
				panic("perfbench: calibration message does not decode: " + err.Error())
			}
		}, true)
	}

	// checkpoint: Take over the keyed workload's 1 MiB region (256 pages),
	// with 1% of pages dirty (sparse) and every page dirty (dense).
	for _, c := range []struct {
		name  string
		dirty int
	}{{"sparse", 3}, {"dense", 256}} {
		region := statemachine.NewRegion(keyedRegion, 4096)
		mgr := checkpoint.NewManager(region, 16)
		seq := message.Seq(0)
		ns, _ := bench(round, func() {
			for p := 0; p < c.dirty; p++ {
				region.WriteAt(p*4096, []byte{byte(seq)})
			}
			seq += checkpointInterval
			mgr.Take(seq, nil)
			mgr.DiscardBefore(seq)
		})
		out = append(out, metric{"checkpoint.take_" + c.name + "_us", "us", ns / 1000})
	}
	return out
}
