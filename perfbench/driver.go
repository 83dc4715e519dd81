package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// invoker is the slice of bft.ClientPool the drivers use.
type invoker interface {
	InvokeContext(ctx context.Context, op []byte, readOnly bool) ([]byte, error)
}

// drainGrace bounds how long requests issued before the end of the window
// may take to resolve; those still unresolved then count as failed.
const drainGrace = 10 * time.Second

// sample is one resolved request, as the driver hands it to the run's
// result checks.
type sample struct {
	op      op
	start   time.Duration // when the request was due (open loop) or sent (closed loop), from the window start
	end     time.Duration // when it resolved, from the window start
	res     []byte
	err     error
	invoked time.Time // wall clock of the invoke call, for the traced run's invoke span
}

// timing is what the run keeps of each sample once it has been checked.
type timing struct {
	start, end time.Duration
	readOnly   bool
	ok         bool
}

// run is everything one measured window produced.
type run struct {
	begin    time.Time
	window   time.Duration
	timings  []timing
	genLag   time.Duration // latest the open-loop generator issued a request
	inFlight int64         // most requests outstanding at once
}

// collector gathers samples from the driver goroutines.
type collector struct {
	mu      sync.Mutex
	timings []timing
	onDone  func(s *sample) // called for every sample, outside the lock
}

func (c *collector) add(s sample) {
	c.onDone(&s)
	c.mu.Lock()
	c.timings = append(c.timings, timing{start: s.start, end: s.end, readOnly: s.op.readOnly, ok: s.err == nil})
	c.mu.Unlock()
}

// runClosed drives workers closed-loop principals for window: each sends
// its next request as soon as the previous one resolves. Latency is timed
// from the send. Worker i draws its ops from streams[i].
func runClosed(inv invoker, streams []*stream, window time.Duration, onDone func(*sample)) *run {
	ctx, cancel := context.WithTimeout(context.Background(), window+drainGrace)
	defer cancel()
	col := &collector{onDone: onDone}
	begin := time.Now()
	end := begin.Add(window)
	var wg sync.WaitGroup
	for _, st := range streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			for time.Now().Before(end) {
				o := st.next()
				t0 := time.Now()
				res, err := inv.InvokeContext(ctx, o.bytes, o.readOnly)
				col.add(sample{op: o, start: t0.Sub(begin), end: time.Since(begin), res: res, err: err, invoked: t0})
			}
		}(st)
	}
	wg.Wait()
	return &run{begin: begin, window: window, timings: col.timings, inFlight: int64(len(streams))}
}

// runOpen drives an open loop: request i is due at i/rate seconds into the
// window, whether or not earlier ones have resolved. Each request's latency
// is timed from its due instant, so a generator or pool stall shows up in
// latency; the generator's own lateness is reported as genLag. at, when
// non-nil, is called from the generator goroutine once the schedule passes
// each of its offsets (the crash workload's kill and restart).
func runOpen(inv invoker, st *stream, rate float64, window time.Duration, at []timedAction, onDone func(*sample)) *run {
	ctx, cancel := context.WithTimeout(context.Background(), window+drainGrace)
	defer cancel()
	col := &collector{onDone: onDone}
	interval := time.Duration(float64(time.Second) / rate)
	var (
		wg               sync.WaitGroup
		inFlight, maxInF atomic.Int64
		maxLag           time.Duration
	)
	begin := time.Now()
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if due >= window {
			break
		}
		for len(at) > 0 && at[0].at <= due {
			go at[0].fn()
			at = at[1:]
		}
		if d := due - time.Since(begin); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(begin) - due; lag > maxLag {
			maxLag = lag
		}
		o := st.next()
		if n := inFlight.Add(1); n > maxInF.Load() {
			maxInF.Store(n)
		}
		wg.Add(1)
		go func(o op, due time.Duration) {
			defer wg.Done()
			t0 := time.Now()
			res, err := inv.InvokeContext(ctx, o.bytes, o.readOnly)
			inFlight.Add(-1)
			col.add(sample{op: o, start: due, end: time.Since(begin), res: res, err: err, invoked: t0})
		}(o, due)
	}
	wg.Wait()
	return &run{begin: begin, window: window, timings: col.timings, genLag: maxLag, inFlight: maxInF.Load()}
}

// timedAction is an action the open-loop generator starts at an offset.
type timedAction struct {
	at time.Duration
	fn func()
}

// latencyStats summarizes the resolved requests of one class.
type latencyStats struct {
	p50, p99 time.Duration
}

func summarize(lat []time.Duration) latencyStats {
	if len(lat) == 0 {
		return latencyStats{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return latencyStats{p50: quantile(lat, 0.50), p99: quantile(lat, 0.99)}
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// outcome is the whole-window view of one window: request counts, the
// read-only and read-write latencies, and the longest stretch in which no
// request resolved.
type outcome struct {
	attempted, failed int
	read, write       latencyStats
	unavailable       time.Duration
}

func (r *run) outcome() outcome {
	var o outcome
	var read, write, ends []time.Duration
	for _, s := range r.timings {
		o.attempted++
		if !s.ok {
			o.failed++
			continue
		}
		if s.readOnly {
			read = append(read, s.end-s.start)
		} else {
			write = append(write, s.end-s.start)
		}
		if s.end <= r.window {
			ends = append(ends, s.end)
		}
	}
	o.read, o.write = summarize(read), summarize(write)
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	prev := time.Duration(0)
	for _, e := range ends {
		if e-prev > o.unavailable {
			o.unavailable = e - prev
		}
		prev = e
	}
	return o
}

// sliceView is the figures of the requests that resolved inside a set of
// slices of the window.
type sliceView struct {
	completed int
	span      time.Duration // total length of the slices
	cpu       time.Duration // process CPU inside the slices
	lat       latencyStats
}

func (r *run) over(slices []hostSlice) sliceView {
	var v sliceView
	for _, sl := range slices {
		v.span += sl.to - sl.from
		v.cpu += sl.self
	}
	var lat []time.Duration
	for _, s := range r.timings {
		if !s.ok {
			continue
		}
		for _, sl := range slices {
			if s.end >= sl.from && s.end < sl.to {
				lat = append(lat, s.end-s.start)
				break
			}
		}
	}
	v.completed = len(lat)
	v.lat = summarize(lat)
	return v
}
