package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/message"
	"repro/internal/simnet"
)

// noRepResult is the unreplicated reference (§8.3's NO-REP): the same
// service, transport and wire messages with one server.
type noRepResult struct {
	throughput float64 // ops/s
	cpuPerOp   float64 // us
}

// runNoRep drives the workload's op stream closed-loop, over 32 principals,
// against internal/baseline on an undelayed simulated network. The keyed
// workload runs an in-memory variant: its store is pre-loaded first.
func runNoRep(w *workload, seed int64, window time.Duration) (noRepResult, error) {
	net := simnet.New(simnet.WithSeed(seed + 11))
	defer net.Close()
	stateSize := 1 << 16
	if w.keyed {
		stateSize = keyedRegion
	}
	srv := baseline.NewServer(net, stateSize, 4096, w.factory())
	srv.Start()
	defer srv.Stop()

	const workers = 32
	clients := make([]*baseline.Client, workers)
	for i := range clients {
		clients[i] = baseline.NewClient(message.ClientIDBase+message.NodeID(i), net)
		defer clients[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), window+drainGrace)
	defer cancel()

	if w.keyed {
		st := newStream(w, seed, 1000)
		for k := 0; k < preloadKeys; k++ {
			o := putOp(st.r, k, st.nextTag())
			res, err := clients[0].InvokeContext(ctx, o.bytes, false)
			if err == nil {
				err = checkResult(o, res)
			}
			if err != nil {
				return noRepResult{}, fmt.Errorf("NO-REP pre-load: %w", err)
			}
		}
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		done    int
		firstEr error
	)
	start := readProc()
	begin := time.Now()
	end := begin.Add(window)
	for i, cl := range clients {
		wg.Add(1)
		go func(cl *baseline.Client, st *stream) {
			defer wg.Done()
			n := 0
			var err error
			for err == nil && time.Now().Before(end) {
				o := st.next()
				var res []byte
				if res, err = cl.InvokeContext(ctx, o.bytes, o.readOnly); err == nil {
					err = checkResult(o, res)
				}
				if err == nil {
					n++
				}
			}
			mu.Lock()
			done += n
			if err != nil && firstEr == nil {
				firstEr = err
			}
			mu.Unlock()
		}(cl, newStream(w, seed, uint64(i+1)))
	}
	wg.Wait()
	elapsed := time.Since(begin)
	cpu := readProc().cpu - start.cpu
	if firstEr != nil {
		return noRepResult{}, fmt.Errorf("NO-REP: %w", firstEr)
	}
	return noRepResult{
		throughput: float64(done) / elapsed.Seconds(),
		cpuPerOp:   us(cpu) / float64(max(done, 1)),
	}, nil
}
