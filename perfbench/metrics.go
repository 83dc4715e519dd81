package main

import (
	"sort"
	"time"

	"repro/bft"
	"repro/internal/message"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndMetrics are the untraced run's user-visible figures; every
// workload reports all of them. Each is the median over the run's rounds,
// each round a freshly set-up cluster measured for its share of the
// window; setup_s is the median set-up time of those clusters.
func endToEndMetrics(rounds []*phase, setups []float64) []metric {
	med := func(f func(p *phase) float64) float64 {
		v := make([]float64, len(rounds))
		for i, p := range rounds {
			v[i] = f(p)
		}
		return median(v)
	}
	return []metric{
		{"throughput_ops_s", "1/s", med(func(p *phase) float64 { return float64(p.view.completed) / p.view.span.Seconds() })},
		{"latency_p50_ms", "ms", med(func(p *phase) float64 { return ms(p.view.lat.p50) })},
		{"cpu_us_per_op", "us", med(func(p *phase) float64 { return us(p.view.cpu) / float64(max(p.view.completed, 1)) })},
		{"allocs_per_op", "allocs/op", med(func(p *phase) float64 { return float64(p.proc.mallocs) / p.ops() })},
		{"setup_s", "s", median(setups)},
		{"rss_peak_mb", "MB", med(func(p *phase) float64 { return p.rssPeak })},
	}
}

// wireTypes are the message types whose per-op datagram counts are
// reported; the two status messages are folded into one.
var wireTypes = []struct {
	name  string
	types []message.Type
}{
	{"request", []message.Type{message.TRequest}},
	{"pre-prepare", []message.Type{message.TPrePrepare}},
	{"prepare", []message.Type{message.TPrepare}},
	{"commit", []message.Type{message.TCommit}},
	{"reply", []message.Type{message.TReply}},
	{"checkpoint", []message.Type{message.TCheckpoint}},
	{"status", []message.Type{message.TStatusActive, message.TStatusPending}},
}

// layerMetrics assembles the per-layer figures: the workload-specific
// latencies and driver health from the untraced window pa, the layer
// counters and spans from the traced window pb, and the reference runs.
func layerMetrics(pa, pb *phase, tr *tracer, spans []span, nr noRepResult, cal []metric) []metric {
	opsB := pb.ops()
	kops := opsB / 1000
	d := func(f func(m bft.Metrics) uint64) float64 { return float64(f(pb.after) - f(pb.before)) }
	perOp := func(v float64) float64 { return v / opsB }
	perKop := func(v float64) float64 { return v / kops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	avgNs := func(kind uint8) float64 {
		return ratio(float64(tr.total[kind].Load()), float64(tr.count[kind].Load()))
	}
	pctl := func(kind uint8, q float64) time.Duration { return quantileOf(durations(spans, kind), q) }

	out := []metric{
		// End-to-end figures from the untraced window of this invocation
		// that are not gated: some exist on some workloads only, and the
		// p99 follows host interference more than the code (see CHANGES.md).
		{"latency_p99_ms", "ms", ms(pa.view.lat.p99)},
		{"error_ratio", "ratio", ratio(float64(pa.out.failed), float64(pa.out.attempted))},
		{"read_p50_ms", "ms", ms(pa.out.read.p50)},
		{"read_p99_ms", "ms", ms(pa.out.read.p99)},
		{"write_p50_ms", "ms", ms(pa.out.write.p50)},
		{"write_p99_ms", "ms", ms(pa.out.write.p99)},
		{"unavailable_ms", "ms", ms(pa.out.unavailable)},
		{"restart_catchup_ms", "ms", ms(pa.catchUp)},
		{"driver.gen_lag_ms_max", "ms", ms(pa.run.genLag)},
		{"driver.in_flight_max", "count", float64(pa.run.inFlight)},
		{"trace.overhead_pct", "%", 100 * (us(pb.proc.cpu)/opsB/(us(pa.proc.cpu)/pa.ops()) - 1)},
	}

	// simnet: datagrams sent, counted by the transport wrapper.
	out = append(out,
		metric{"simnet.msgs_per_op", "msgs/op", perOp(float64(tr.sendsN.Load()))},
		metric{"simnet.bytes_per_op", "B/op", perOp(float64(tr.bytes.Load()))},
	)
	for _, wt := range wireTypes {
		var n int64
		for _, t := range wt.types {
			n += tr.msgs[t].Load()
		}
		out = append(out, metric{"simnet.msgs_per_op." + wt.name, "msgs/op", perOp(float64(n))})
	}
	out = append(out, metric{"simnet.drops", "count", float64(pb.simDrops)})

	// ingress.
	out = append(out,
		metric{"ingress.admit_ns_per_msg", "ns", avgNs(spanAdmit)},
		metric{"pbft.inbox_drops", "count", d(func(m bft.Metrics) uint64 { return m.InboxDrops })},
		metric{"pbft.bad_auth_drops", "count", d(func(m bft.Metrics) uint64 { return m.MsgsDroppedBadAuth })},
	)

	// pbft agreement core.
	batches := d(func(m bft.Metrics) uint64 { return m.BatchesProposed })
	out = append(out,
		metric{"pbft.batch_fill_avg", "reqs/batch", ratio(d(func(m bft.Metrics) uint64 { return m.RequestsProposed }), batches)},
		metric{"pbft.batches_per_kop", "1/kop", perKop(batches)},
		metric{"pbft.batch_wait_fires_per_kop", "1/kop", perKop(d(func(m bft.Metrics) uint64 { return m.BatchWaitFires }))},
		metric{"pbft.queue_depth", "reqs", pb.queueDepth},
	)

	// kvservice and executor.
	execs := float64(tr.count[spanExecute].Load())
	out = append(out,
		metric{"kvservice.execute_calls_per_op", "calls/op", perOp(execs)},
		metric{"kvservice.execute_us_per_op", "us", perOp(float64(tr.total[spanExecute].Load())) / 1000},
		metric{"kvservice.execute_us_p50", "us", us(pctl(spanExecute, 0.5))},
		metric{"executor.exec_stalls", "count", d(func(m bft.Metrics) uint64 { return m.ExecStalls })},
		metric{"executor.tentative_execs", "count", d(func(m bft.Metrics) uint64 { return m.TentativeExecs })},
		metric{"executor.rollbacks", "count", d(func(m bft.Metrics) uint64 { return m.Rollbacks })},
	)

	// checkpoint.
	ckpts := d(func(m bft.Metrics) uint64 { return m.CheckpointsTaken })
	digestTime := time.Duration(pb.after.CkptDigestTime - pb.before.CkptDigestTime)
	out = append(out,
		metric{"checkpoint.per_kop", "1/kop", perKop(ckpts)},
		metric{"checkpoint.pages_digested_per_ckpt", "pages", ratio(d(func(m bft.Metrics) uint64 { return m.PagesDigested }), ckpts)},
		metric{"checkpoint.pages_copied_per_ckpt", "pages", ratio(d(func(m bft.Metrics) uint64 { return m.PagesCopied }), ckpts)},
		metric{"checkpoint.digest_ms_per_ckpt", "ms", ratio(ms(digestTime), ckpts)},
	)

	// wal.
	appends := d(func(m bft.Metrics) uint64 { return m.WALAppends })
	fsyncs := d(func(m bft.Metrics) uint64 { return m.WALFsyncs })
	out = append(out,
		metric{"wal.appends_per_op", "appends/op", perOp(appends)},
		metric{"wal.bytes_per_op", "B/op", perOp(d(func(m bft.Metrics) uint64 { return m.WALBytes }))},
		metric{"wal.fsyncs_per_kop", "1/kop", perKop(fsyncs)},
		metric{"wal.appends_per_fsync", "appends", ratio(appends, fsyncs)},
		metric{"wal.write_us_per_call", "us", avgNs(spanWALWrite) / 1000},
		metric{"wal.sync_ms_p50", "ms", ms(pctl(spanWALSync, 0.5))},
		metric{"wal.sync_ms_p99", "ms", ms(pctl(spanWALSync, 0.99))},
		metric{"wal.replay_ms", "ms", ms(pb.after.ReplayTime)},
	)

	// view changes and state transfer.
	out = append(out,
		metric{"viewchange.view_changes", "count", d(func(m bft.Metrics) uint64 { return m.ViewChanges })},
		metric{"viewchange.new_views", "count", d(func(m bft.Metrics) uint64 { return m.NewViewsProcessed })},
		metric{"statefetch.transfers", "count", d(func(m bft.Metrics) uint64 { return m.StateTransfers })},
		metric{"statefetch.pages_fetched", "count", d(func(m bft.Metrics) uint64 { return m.PagesFetched })},
		metric{"statefetch.transfer_bytes", "B", d(func(m bft.Metrics) uint64 { return m.TransferBytes })},
		metric{"statefetch.last_transfer_ms", "ms", ms(pb.after.LastTransferTime)},
		metric{"statefetch.fetch_retries", "count", d(func(m bft.Metrics) uint64 { return m.FetchRetries })},
	)

	// runtime, trace self time, and the reference runs.
	self, linked, executes := selfTimes(spans)
	out = append(out,
		metric{"runtime.gc_cycles_per_kop", "1/kop", perKop(float64(pb.proc.gcs))},
		metric{"runtime.gc_pause_ms", "ms", float64(pb.proc.pauseNs) / 1e6},
		metric{"trace.invoke_self_us_p50", "us", us(quantileOf(self, 0.5))},
		metric{"trace.linked_execute_ratio", "ratio", ratio(float64(linked), float64(executes))},
		metric{"norep.throughput_ops_s", "1/s", nr.throughput},
		metric{"norep.cpu_us_per_op", "us", nr.cpuPerOp},
	)
	return append(out, cal...)
}

// quantileOf returns the nearest-rank quantile of v, without reordering v.
func quantileOf(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, q)
}
