package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bft"
	"repro/bft/kv"
)

// procCounters are the process-wide costs read at the edges of a window.
type procCounters struct {
	cpu     time.Duration // user + system
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// phase is one measured window on one cluster, with its correctness
// verdict.
type phase struct {
	run        *run
	out        outcome
	proc       procCounters // deltas over the window and its drain
	before     bft.Metrics
	after      bft.Metrics
	catchUp    time.Duration // primary-crash: restart until caught up
	queueDepth float64       // mean sampled request-queue depth (traced only)
	simDrops   uint64        // datagrams the simulated network dropped
	rssPeak    float64       // MiB, highest resident set size sampled in the window
	// view is what the end-to-end figures are taken over: the quieter half
	// of the window's slices for a closed loop, every slice for an open one.
	view sliceView
	err  error // the correctness gate's verdict
}

// ops is the number of requests the window completed successfully, the
// denominator of every per-op figure.
func (p *phase) ops() float64 { return float64(max(p.out.attempted-p.out.failed, 1)) }

// measure runs one window of the workload on c and then the correctness
// gate. With a tracer, the tracer records exactly the window.
func measure(c *cluster, seed int64, window time.Duration) *phase {
	w, tr := c.w, c.tr
	p := &phase{}
	var (
		mu       sync.Mutex
		badRes   error
		incrs    []uint64
		incrFail int
	)
	onDone := func(s *sample) {
		if tr != nil {
			tr.record(span{kind: spanInvoke, node: -1, tag: s.op.tag, start: int64(s.invoked.Sub(tr.epoch)), end: tr.now()})
		}
		if s.err == nil {
			if err := checkResult(s.op, s.res); err != nil {
				mu.Lock()
				badRes = errors.Join(badRes, err)
				mu.Unlock()
			}
		}
		switch s.op.kind {
		case opPut:
			if s.err == nil {
				c.puts.ack(s.op, s.invoked, time.Now())
			} else {
				c.puts.fail(s.op)
			}
		case opIncr:
			mu.Lock()
			if s.err == nil {
				incrs = append(incrs, kv.DecodeU64(s.res))
			} else {
				incrFail++
			}
			mu.Unlock()
		}
	}

	var (
		depthSum, depthN float64
		hostSamples      []hostSample
	)
	stopSampling := func() {}
	if tr != nil {
		stopSampling = every(100*time.Millisecond, func() {
			for _, r := range c.replicas() {
				depthSum += float64(r.Metrics().QueueDepth)
			}
			depthN++
		})
		tr.active.Store(true)
	}
	stopRSS := every(rssInterval, func() { p.rssPeak = max(p.rssPeak, residentMB()) })
	stopHost := every(sliceLen, func() { hostSamples = append(hostSamples, readHost()) })
	p.before = c.metrics()
	_, dropsBefore := c.sim.Stats()
	start := readProc()
	if w.closed > 0 {
		streams := make([]*stream, w.closed)
		for i := range streams {
			streams[i] = newStream(w, seed, uint64(i+1))
		}
		p.run = runClosed(c.pool, streams, window, onDone)
	} else {
		var (
			cr      *crashRun
			actions []timedAction
		)
		if w.crash {
			cr, actions = c.crashSchedule(window)
		}
		p.run = runOpen(c.pool, newStream(w, seed, 1), w.rate, window, actions, onDone)
		if cr != nil {
			cr.wg.Wait()
			p.catchUp, p.err = cr.catchUp, cr.err
		}
	}
	end := readProc()
	stopHost()
	stopRSS()
	stopSampling()
	if tr != nil {
		tr.active.Store(false)
		p.queueDepth = depthSum / max(depthN, 1)
	}
	slices := hostSlices(hostSamples, p.run.begin)
	p.after = c.metrics()
	_, dropsAfter := c.sim.Stats()
	p.simDrops = dropsAfter - dropsBefore
	p.proc = procCounters{
		cpu:     end.cpu - start.cpu,
		mallocs: end.mallocs - start.mallocs,
		gcs:     end.gcs - start.gcs,
		pauseNs: end.pauseNs - start.pauseNs,
	}
	p.out = p.run.outcome()
	in := inWindow(slices, window)
	if len(in) == 0 {
		// A window shorter than two slices is taken whole.
		in = []hostSlice{{from: 0, to: window, self: p.proc.cpu}}
	}
	if w.closed > 0 {
		in = quietHalf(in)
	}
	p.view = p.run.over(in)

	// The correctness gate.
	states := settle(c.replicas())
	lagging, err := checkAgreement(states)
	for _, i := range lagging {
		fmt.Fprintf(os.Stderr, "perfbench: %s: replica %d ended waiting alone in view %d at seq %d\n",
			w.name, i, states[i].view, states[i].lastExec)
	}
	if err == nil {
		switch {
		case w.keyed:
			err = checkReadBack(c.gate, c.puts, seed)
		case w.crash:
			var final uint64
			if final, err = readCounter(c.gate); err == nil {
				err = checkCounter(final, c.incrAcked+len(incrs), incrs, incrFail)
			}
		}
	}
	p.err = errors.Join(p.err, badRes, err)
	return p
}

// checkpointInterval is the engine's default checkpoint period K.
const checkpointInterval = 128

// crashRun is the primary-crash schedule's state; read it after wg.Wait.
type crashRun struct {
	wg      sync.WaitGroup
	killed  chan struct{}
	victim  int
	catchUp time.Duration
	err     error
}

// crashSchedule kills the primary at a third of the window and restarts it
// from its WAL at two thirds, timing how long the restarted replica takes
// to reach the group's frontier at restart time and to trail the moving
// frontier by less than a checkpoint interval.
func (c *cluster) crashSchedule(window time.Duration) (*crashRun, []timedAction) {
	cr := &crashRun{killed: make(chan struct{})}
	cr.wg.Add(2)
	kill := func() {
		defer cr.wg.Done()
		rs := c.replicas()
		cr.victim = int(rs[0].View() % uint64(len(rs)))
		c.kill(cr.victim)
		close(cr.killed)
	}
	restart := func() {
		defer cr.wg.Done()
		<-cr.killed
		start := time.Now()
		target := uint64(0)
		for _, r := range c.replicas() {
			target = max(target, r.LastExecuted())
		}
		r := c.restart(cr.victim)
		deadline := start.Add(window + drainGrace)
		for {
			v, lead := r.LastExecuted(), uint64(0)
			for _, o := range c.replicas() {
				lead = max(lead, o.LastExecuted())
			}
			if v >= target && v+checkpointInterval >= lead {
				break
			}
			if time.Now().After(deadline) {
				cr.err = fmt.Errorf("restarted replica %d stuck at %d, group at %d", cr.victim, v, lead)
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		cr.catchUp = time.Since(start)
	}
	return cr, []timedAction{{at: window / 3, fn: kill}, {at: 2 * window / 3, fn: restart}}
}

// every calls fn now and then every d on its own goroutine until the
// returned stop function is called; stop returns once fn has run for the
// last time, so what fn wrote is then safe to read.
func every(d time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			fn()
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// rssInterval is how often the window samples the resident set size.
const rssInterval = 50 * time.Millisecond

// residentMB reads the process's current resident set size, in MiB.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.Atoi(f[1]) // a malformed field reads as zero
	return float64(pages*os.Getpagesize()) / (1 << 20)
}
