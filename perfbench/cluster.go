package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bft"
	"repro/internal/message"
	"repro/internal/pbft"
	"repro/internal/wal"
)

// replica is the part of *bft.Replica the benchmark uses.
type replica interface {
	Start()
	Stop()
	Kill()
	View() uint64
	LastExecuted() uint64
	StateDigest() bft.Digest
	Metrics() bft.Metrics
}

// engineReplica adapts a *pbft.Replica, which the traced run builds for
// durable workloads because bft.Options has no seam for the WAL backend.
type engineReplica struct{ *pbft.Replica }

func (r engineReplica) View() uint64         { return uint64(r.Replica.View()) }
func (r engineReplica) LastExecuted() uint64 { return uint64(r.Replica.LastExecuted()) }

// cluster is one four-replica group with its client pool, built through
// the per-node bft API over one simulated network.
type cluster struct {
	w    *workload
	opts bft.Options
	sim  *bft.SimNet
	net  bft.Network // sim, or its traced wrapper
	tr   *tracer     // nil when untraced
	dir  string      // WAL root (durable workloads)
	pool *bft.ClientPool
	gate *bft.ClientPool // the correctness gate's reader
	// keys is the offline key setup of replicas built through the engine
	// (traced durable workloads); bft keeps its own, identical one.
	keys *pbft.Directory

	mu      sync.Mutex // guards nodes and retired against the crash schedule
	nodes   []replica
	retired bft.Metrics // counters of killed replica instances

	// incrAcked counts acknowledged Incr ops outside the measured window
	// (set-up warm-up), for the exactly-once check.
	incrAcked int
	// puts is the acknowledged-put history, for the read-back check.
	puts *putHistory
}

// newCluster builds and starts the group, then pre-loads and warms it up.
func newCluster(w *workload, seed int64, tr *tracer, dir string) (*cluster, error) {
	if w.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("create WAL directory: %w", err)
		}
	}
	c := &cluster{w: w, opts: w.options(seed, dir), tr: tr, dir: dir, puts: newPutHistory()}
	c.sim = bft.SimNetwork(bft.SimSeed(seed+7), bft.SimLinks(bft.LinkProfile{Latency: w.delay}))
	if tr != nil && c.opts.Durable {
		c.keys = pbft.OfflineDirectory(c.opts.Replicas, c.opts.MaxClients)
	}
	c.net = c.sim
	if tr != nil {
		c.net = &tracedNet{inner: c.sim, t: tr}
	}
	for i := 0; i < c.opts.Replicas; i++ {
		c.nodes = append(c.nodes, c.newReplica(i))
	}
	for _, r := range c.nodes {
		r.Start()
	}
	c.pool = bft.NewClientPoolAt(0, w.poolSize(), c.opts, c.net)
	c.gate = bft.NewClientPoolAt(w.poolSize(), 1, c.opts, c.net)
	if err := c.preload(seed); err != nil {
		c.stop()
		return nil, err
	}
	if err := c.warmUp(seed); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// newReplica constructs replica i. Untraced, it is the plain public
// constructor. Traced, the service (and, for durable workloads, the WAL
// backend) is wrapped.
func (c *cluster) newReplica(i int) replica {
	svc := c.w.factory()
	if c.tr == nil {
		return bft.NewReplica(i, c.opts, svc, c.net)
	}
	svc = tracedFactory(svc, c.tr, i)
	if !c.opts.Durable {
		return bft.NewReplica(i, c.opts, svc, c.net)
	}
	fb, err := wal.NewFileBackend(filepath.Join(c.dir, fmt.Sprintf("r%d", i)))
	if err != nil {
		panic("perfbench: WAL directory: " + err.Error())
	}
	cfg := engineConfig(c.opts, i)
	cfg.WALBackend = &tracedBackend{Backend: fb, t: c.tr, node: int32(i)}
	return engineReplica{pbft.NewReplica(cfg, c.keys, c.net, svc)}
}

// engineConfig lowers the options the benchmark sets onto the engine's
// per-replica Config the way bft.NewReplica does: engine defaults, the
// group size, mode, region size and seed; every other field keeps its zero
// value, which the engine defaults exactly as bft leaves it to.
func engineConfig(o bft.Options, id int) pbft.Config {
	return pbft.Config{
		ID:        message.NodeID(id),
		N:         o.Replicas,
		Mode:      o.Mode,
		Opt:       pbft.DefaultOptions(),
		StateSize: o.StateSize,
		Seed:      o.Seed,
	}
}

// stop tears the cluster down and removes its WAL directory.
func (c *cluster) stop() {
	c.pool.Close()
	c.gate.Close()
	for _, r := range c.replicas() {
		r.Stop()
	}
	c.sim.Close()
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// kill crashes replica i, keeping its counters for the per-layer totals.
func (c *cluster) kill(i int) {
	c.mu.Lock()
	r := c.nodes[i]
	c.mu.Unlock()
	m := r.Metrics()
	r.Kill()
	c.mu.Lock()
	c.retired.Merge(m)
	c.nodes[i] = nil
	c.mu.Unlock()
}

// restart replaces replica i with a fresh instance that replays its WAL.
func (c *cluster) restart(i int) replica {
	r := c.newReplica(i)
	r.Start()
	c.mu.Lock()
	c.nodes[i] = r
	c.mu.Unlock()
	return r
}

// replicas returns the live replicas (a killed one is absent until its
// restart).
func (c *cluster) replicas() []replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]replica, 0, len(c.nodes))
	for _, r := range c.nodes {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// metrics sums the counters of every replica instance the run has had.
func (c *cluster) metrics() bft.Metrics {
	nodes := c.replicas()
	snaps := make([]bft.Metrics, 0, len(nodes)+1)
	for _, r := range nodes {
		snaps = append(snaps, r.Metrics())
	}
	c.mu.Lock()
	snaps = append(snaps, c.retired)
	c.mu.Unlock()
	return bft.SumMetrics(snaps...)
}

// preload writes every key of the keyed store once, so probe chains do
// not grow while the run is timed.
func (c *cluster) preload(seed int64) error {
	if !c.w.keyed {
		return nil
	}
	const workers = 32
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			st := newStream(c.w, seed, uint64(1000+wk))
			for k := wk; k < preloadKeys; k += workers {
				o := putOp(st.r, k, st.nextTag())
				start := time.Now()
				res, err := c.pool.InvokeContext(ctx, o.bytes, false)
				if err == nil {
					err = checkResult(o, res)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("pre-load key %d: %w", k, err) })
					return
				}
				c.puts.ack(o, start, time.Now())
			}
		}(wk)
	}
	wg.Wait()
	return firstErr
}

// warmUp runs the workload's own ops closed-loop until every principal of
// the pool has served a few requests and lazy set-up is done.
func (c *cluster) warmUp(seed int64) error {
	workers := min(c.w.poolSize(), 32)
	perWorker := max(16, 2*c.w.poolSize()/workers+1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			st := newStream(c.w, seed, uint64(2000+wk))
			for i := 0; i < perWorker; i++ {
				o := st.next()
				start := time.Now()
				res, err := c.pool.InvokeContext(ctx, o.bytes, o.readOnly)
				if err == nil {
					err = checkResult(o, res)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("warm-up: %w", err)
				}
				if err == nil && o.kind == opIncr {
					c.incrAcked++
				}
				mu.Unlock()
				if err != nil {
					return
				}
				if o.kind == opPut {
					c.puts.ack(o, start, time.Now())
				}
			}
		}(wk)
	}
	wg.Wait()
	return firstErr
}
