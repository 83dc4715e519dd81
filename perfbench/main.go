// Command perfbench is the repository's standing benchmark. It runs a
// four-replica PBFT group in one process through the public bft API under
// one of four fixed workloads, checks that the replicated outputs are
// correct, and prints the metrics BENCHMARK.json names.
//
// Build and run it from the repository root through its script:
//
//	bash perfbench/run.sh --workload noop-closed --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload primary-crash --seed 2 --seconds 10 --trace 1
//	bash perfbench/run.sh --seconds 10     # every workload, untraced then traced
//
// With --trace 0 the run times the client invoke with no wrappers installed
// and reports the end-to-end metrics. With --trace 1 it first repeats the
// untraced window (for the workload-specific latencies and the tracing
// overhead), then runs a traced window whose wrappers around the network,
// the service and the WAL backend record spans and per-layer counters,
// then the NO-REP reference and the layer calibration, and reports the
// per-layer metrics. Spans and a per-layer report are written under
// --out. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness check
// makes the run exit with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many clusters the untraced run sets up.
const setups = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	err       error
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload untraced, then traced")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Int("seconds", 10, "length of each measured window, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, per-layer reports and WAL files")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, out: *out, setups: setups}

	var res *result
	if *name == "" {
		res = runAll(cfg, os.Stdout)
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if *trace == 1 {
			res = runTraced(w, cfg)
		} else {
			res = runUntraced(w, cfg)
		}
		printTable(os.Stdout, w.name, res)
	}
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", res.err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// config is what every run of one invocation shares.
type config struct {
	seed   int64
	window time.Duration
	out    string
	setups int
}

// roundSeed is the input seed of round i of the run.
func (c config) roundSeed(i int) int64 { return c.seed*int64(c.setups) + int64(i) }

// walDir returns a fresh WAL root for one cluster.
func (c config) walDir(w *workload, label string) string {
	return filepath.Join(c.out, fmt.Sprintf("wal-%s-%s-%d", w.name, label, os.Getpid()))
}

// runUntraced sets a cluster up cfg.setups times and reports the median
// set-up time. It measures the workload's rounds on the last clusters, an
// equal share of the window each, and reports the median of each
// end-to-end metric over them: a fresh cluster per round keeps one slow
// set-up or one noisy stretch of the host from deciding the run.
func runUntraced(w *workload, cfg config) *result {
	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	measured := min(w.rounds, cfg.setups)
	var (
		setupTimes []float64
		rounds     []*phase
	)
	for i := 0; i < cfg.setups; i++ {
		seed := cfg.roundSeed(i)
		start := time.Now()
		c, err := newCluster(w, seed, nil, cfg.walDir(w, fmt.Sprint("setup", i)))
		if err != nil {
			return failed(err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < cfg.setups-measured {
			c.stop()
			continue
		}
		runtime.GC()
		p := measure(c, seed, cfg.window/time.Duration(measured))
		c.stop()
		res.add(p)
		rounds = append(rounds, p)
	}
	for _, m := range endToEndMetrics(rounds, setupTimes) {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return res
}

// runTraced measures an untraced half window and then a traced one, each
// on its own cluster, followed by the NO-REP reference and the layer
// calibration. The NO-REP window and the calibration rounds scale with the
// window.
func runTraced(w *workload, cfg config) *result { return runTracedWith(w, cfg, newTracer()) }

func runTracedWith(w *workload, cfg config, tr *tracer) *result {
	half := cfg.window / 2
	ca, err := newCluster(w, cfg.seed, nil, cfg.walDir(w, "untraced"))
	if err != nil {
		return failed(err)
	}
	runtime.GC()
	pa := measure(ca, cfg.seed, half)
	ca.stop()

	cb, err := newCluster(w, cfg.seed, tr, cfg.walDir(w, "traced"))
	if err != nil {
		return failed(err)
	}
	runtime.GC()
	pb := measure(cb, cfg.seed, half)
	cb.stop()

	spans := tr.snapshot()
	nr, err := runNoRep(w, cfg.seed, cfg.window/5)
	if err != nil {
		return failed(err)
	}
	layers := layerMetrics(pa, pb, tr, spans, nr, calibrate(cfg.window/500))

	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	res.add(pa)
	res.add(pb)
	for _, m := range layers {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	if err := writeReports(cfg, w, spans, res.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing reports:", err)
	}
	return res
}

// add folds one measured window's requests and verdict into the result.
func (r *result) add(p *phase) {
	r.Attempted += p.out.attempted
	r.Failed += p.out.failed
	if p.err != nil {
		r.Correct = false
		r.err = errors.Join(r.err, p.err)
	}
}

// failed is the result of a run that could not get as far as measuring.
func failed(err error) *result {
	return &result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}, err: err}
}

// writeReports writes the traced run's spans (JSON lines) and its
// per-layer metrics next to them.
func writeReports(cfg config, w *workload, spans []span, metrics map[string]metricValue) error {
	base := filepath.Join(cfg.out, w.name)
	if err := writeSpans(base+".spans.jsonl", spans); err != nil {
		return err
	}
	b, err := json.MarshalIndent(metrics, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".layers.json", b, 0o644)
}

// runAll runs every workload untraced, then traced, printing each run's
// metrics; the returned result folds them together under
// "<workload>.<metric>" names.
func runAll(cfg config, out io.Writer) *result {
	all := &result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			var r *result
			if traced {
				r = runTraced(w, cfg)
			} else {
				r = runUntraced(w, cfg)
			}
			printTable(out, w.name, r)
			line, _ := json.Marshal(r) // a result always marshals
			fmt.Fprintln(out, string(line))
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", w.name, r.err)
			}
			all.Correct = all.Correct && r.Correct
			all.Attempted += r.Attempted
			all.Failed += r.Failed
			for k, v := range r.Metrics {
				all.Metrics[w.name+"."+k] = v
			}
		}
	}
	return all
}

// printTable prints one run's metrics by name and unit.
func printTable(out io.Writer, workload string, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# %s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, k := range names {
		fmt.Fprintf(out, "%-40s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
