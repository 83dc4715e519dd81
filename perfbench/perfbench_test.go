package main

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"repro/bft"
	"repro/internal/message"
	"repro/internal/transport"
)

// spec is the part of BENCHMARK.json the test checks the program against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

// TestWorkloadsTiny runs the workloads at a tiny scale, untraced and
// traced, and checks that each run is correct, emits every metric
// BENCHMARK.json names with its unit, and links its spans.
//
// primary-crash is left out: about one run in fifty of it stalls the whole
// group after the view change (see CHANGES.md), which would make this test
// flaky. The benchmark command still runs it, and its gate reports the
// stall.
//
// The test keeps both cores busy for about ten seconds, which starves the
// package tests `go test ./...` runs beside it (internal/pbft's timing-bound
// tests then fail), so it runs only when PERFBENCH_TINY is set:
//
//	PERFBENCH_TINY=1 go test ./perfbench
//
// It is skipped under the race detector too: the detector's slowdown fires
// the 250 ms view-change timers spuriously, and replicas that lose the
// resulting view changes end behind, which the gate rightly refuses.
// TestTracerConcurrent covers the harness's shared state there.
func TestWorkloadsTiny(t *testing.T) {
	if os.Getenv("PERFBENCH_TINY") == "" {
		t.Skip("set PERFBENCH_TINY=1 to run the workloads")
	}
	if raceEnabled {
		t.Skip("protocol timers misfire under the race detector's slowdown")
	}
	s := loadSpec(t)
	for _, sw := range s.Workloads {
		if _, err := workloadByName(sw.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		if w.crash {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, window: time.Second, out: t.TempDir(), setups: 1}

			res := runUntraced(w, cfg)
			if !res.Correct || res.err != nil {
				t.Fatalf("untraced run incorrect: %v", res.err)
			}
			for _, m := range s.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("untraced: metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}

			tr := newTracer()
			res = runTracedWith(w, cfg, tr)
			if !res.Correct || res.err != nil {
				t.Fatalf("traced run incorrect: %v", res.err)
			}
			for _, m := range s.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("traced: metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}

			spans := tr.snapshot()
			self, linked, executes := selfTimes(spans)
			if len(self) == 0 || executes == 0 {
				t.Fatalf("traced run kept %d invoke and %d execute spans", len(self), executes)
			}
			for _, d := range self {
				if d < 0 {
					t.Fatalf("negative self time %v", d)
				}
			}
			// Every request executed at f+1 replicas at least before its
			// client could accept the result; Execute spans of requests
			// from before the window (slow replicas finishing the warm-up)
			// have no invoke span to link to.
			kids := make(map[uint64]int)
			for _, sp := range spans {
				if sp.kind == spanExecute {
					kids[sp.tag]++
				}
			}
			for _, sp := range spans {
				if sp.kind == spanInvoke && kids[sp.tag] < 2 {
					t.Fatalf("invoke span %d links %d Execute spans, want at least 2", sp.tag, kids[sp.tag])
				}
			}
			if linked == 0 || linked > executes {
				t.Errorf("%d of %d Execute spans link to an invoke span", linked, executes)
			}
			if _, err := os.Stat(cfg.out + "/" + w.name + ".spans.jsonl"); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// TestTracedTransportKeepsMulticaster checks that the traced network still
// offers the owned-buffer send surface when the inner transport has it.
func TestTracedTransportKeepsMulticaster(t *testing.T) {
	sim := bft.SimNetwork()
	defer sim.Close()
	net := &tracedNet{inner: sim, t: newTracer()}
	tp := net.Attach(message.NodeID(0), func([]byte) {})
	defer tp.Close()
	if _, ok := tp.(transport.Multicaster); !ok {
		t.Fatal("traced transport over the simulator does not implement transport.Multicaster")
	}
}

// TestTracerConcurrent records spans and datagrams from many goroutines at
// once, as the replicas' handlers, executors and WAL writers do, and checks
// the totals.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	tr.active.Store(true)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.record(span{kind: spanExecute, node: int32(w), tag: uint64(i + 1), start: tr.now(), end: tr.now()})
				tr.countSend([]byte{byte(message.TPrepare), 0}, 3)
			}
		}(w)
	}
	wg.Wait()
	tr.active.Store(false)
	if got := tr.count[spanExecute].Load(); got != workers*each {
		t.Errorf("counted %d Execute spans, want %d", got, workers*each)
	}
	if got := len(tr.snapshot()); got != workers*each {
		t.Errorf("kept %d spans, want %d", got, workers*each)
	}
	if got := tr.msgs[message.TPrepare].Load(); got != 3*workers*each {
		t.Errorf("counted %d prepares, want %d", got, 3*workers*each)
	}
}

// TestGateRejectsDoctoredState checks that the correctness gate fails on a
// diverged digest or executed prefix, and on a counter that is not exactly
// once.
func TestGateRejectsDoctoredState(t *testing.T) {
	good := make([]replicaState, 4)
	for i := range good {
		good[i] = replicaState{view: 1, lastExec: 5, digest: bft.Digest{1}}
	}
	edit := func(fn func(s []replicaState)) []replicaState {
		s := append([]replicaState(nil), good...)
		fn(s)
		return s
	}
	if lagging, err := checkAgreement(good); err != nil || len(lagging) != 0 {
		t.Fatalf("agreeing replicas: lagging %v, err %v", lagging, err)
	}
	if _, err := checkAgreement(edit(func(s []replicaState) { s[2].digest[0] ^= 0xff })); err == nil {
		t.Error("a doctored state digest passed the gate")
	}
	if _, err := checkAgreement(edit(func(s []replicaState) { s[3].lastExec = 4 })); err == nil {
		t.Error("a replica behind the others in their view passed the gate")
	}
	alone := edit(func(s []replicaState) { s[3].lastExec, s[3].view = 4, 2 })
	if lagging, err := checkAgreement(alone); err != nil || len(lagging) != 1 || lagging[0] != 3 {
		t.Errorf("a replica waiting alone in a higher view: lagging %v, err %v", lagging, err)
	}
	two := edit(func(s []replicaState) {
		s[2].lastExec, s[2].view = 4, 2
		s[3].lastExec, s[3].view = 4, 2
	})
	if _, err := checkAgreement(two); err == nil {
		t.Error("two replicas behind out of four passed the gate")
	}

	if err := checkCounter(3, 3, []uint64{1, 2, 3}, 0); err != nil {
		t.Fatalf("exactly-once counter rejected: %v", err)
	}
	if checkCounter(4, 3, []uint64{1, 2, 3}, 0) == nil {
		t.Error("a counter above the acknowledged Incrs passed the gate")
	}
	if checkCounter(2, 3, []uint64{1, 2, 3}, 0) == nil {
		t.Error("a counter below the acknowledged Incrs passed the gate")
	}
	if checkCounter(3, 3, []uint64{1, 2, 2}, 0) == nil {
		t.Error("two Incrs returning one value passed the gate")
	}
	if err := checkCounter(4, 3, []uint64{1, 2, 3}, 1); err != nil {
		t.Errorf("a failed Incr that executed was rejected: %v", err)
	}
}

// TestPutHistory checks the read-back rule: a read may return the last
// acknowledged put, or one that overlapped it, but not an overwritten one.
func TestPutHistory(t *testing.T) {
	h := newPutHistory()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	h.ack(op{key: 1, tag: 10}, at(0), at(1))
	h.ack(op{key: 1, tag: 11}, at(2), at(5))
	h.ack(op{key: 1, tag: 12}, at(3), at(4)) // overlaps 11
	if h.allowed(1, 10) {
		t.Error("an overwritten value was allowed")
	}
	if !h.allowed(1, 11) || !h.allowed(1, 12) {
		t.Error("one of two overlapping last puts was refused")
	}
	if h.allowed(1, 99) {
		t.Error("a value never written was allowed")
	}
}

// TestTagOf checks that the tag is recovered from every op kind.
func TestTagOf(t *testing.T) {
	for _, w := range workloads {
		st := newStream(w, 1, 5)
		for i := 0; i < 20; i++ {
			o := st.next()
			if got := tagOf(o.bytes); got != o.tag {
				t.Fatalf("%s: tagOf = %d, want %d", w.name, got, o.tag)
			}
		}
	}
}
