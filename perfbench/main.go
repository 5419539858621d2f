// Command perfbench is the repository's benchmark: it runs one workload
// against an in-process netserver over loopback, checks every reply
// against a model of the store, and prints the metrics BENCHMARK.json
// names.  With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the run is repeated with counting wrappers, samplers and
// spans on, and prints the per-layer metrics instead.  See README.md.
//
//	perfbench --workload pipelined-scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  The exit code is
// non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setupRuns is how many times a run sets up its deployment; setup_s is
// the median, and the last deployment is the one loaded.
const setupRuns = 9

type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	name := flag.String("workload", "", "workload name: pipelined-scan or durable-repl")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds of load")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("bad --seconds %d or --trace %d", *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ms, st, err := run(&w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	correct := err == nil
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, st.attempted, st.failed, map[string]map[string]any{}}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", m.name, m.value)
			os.Exit(1)
		}
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !correct {
		os.Exit(1)
	}
}

// run sets up, loads and checks one workload and returns its metrics.
// Scratch files live under .bench_build in the working directory and
// are removed on return.
func run(w *workload, seed uint64, dur time.Duration, traced bool) ([]metric, stage, error) {
	root := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(root)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	m := newModel(w.keys)
	heap0 := heapInUse()
	d, setup, err := deploySetups(w, root, tr)
	if err != nil {
		return nil, stage{}, err
	}
	opt := exerciseOpts{warmCheckpoints: w.durable}
	if !traced {
		opt.heap0 = heap0
	}
	st, err := exercise(d, w, seed, dur, m, tr, opt)
	if err != nil {
		return nil, st, err
	}
	printStage(w.name, traced, st, setup)
	if !traced {
		return endToEnd(w, st, setup), st, nil
	}

	// The rung on the other side of the durability switch: the same
	// workload against a durable, replicated server when the workload is
	// in memory, and against an in-memory server when it is durable.
	other := *w
	other.durable = !w.durable
	od, err := deploy(&other, filepath.Join(root, "rung"), tr)
	if err != nil {
		return nil, st, err
	}
	ost, err := exercise(od, &other, seed, rungBudget, newModel(w.keys), tr, exerciseOpts{})
	if err != nil {
		return nil, st, fmt.Errorf("durability-switched rung: %w", err)
	}
	net, durable := st, ost
	if w.durable {
		net, durable = ost, st
	}
	rungs, br, err := runLadderInProcess(w, seed, root)
	if err != nil {
		return nil, st, err
	}
	rungs["net"] = loadRung(net)
	rungs["repl"] = loadRung(durable)
	mean := int(math.Round(ratio(float64(st.writes), float64(st.c1.batches-st.c0.batches))))
	mr, err := measureMicro(w, seed, mean)
	if err != nil {
		return nil, st, err
	}
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s.tsv", w.name))
	if err := tr.write(path); err != nil {
		return nil, st, err
	}
	sum := tr.summary()
	for i, s := range sum {
		fmt.Printf("span %-18s n=%-8d p50=%.1fus\n", spanNames[i], s.count, s.p50us)
	}
	fmt.Printf("spans written to %s (%d dropped)\n", path, tr.dropped.Load())
	return perLayer(st, durable, rungs, br, mr), st, nil
}

// loadRung turns a load stage into a ladder rung: wall time and process
// allocations per completed op.
func loadRung(s stage) rung {
	n := float64(s.completed)
	return rung{
		nsPerOp:     ratio(float64(s.elapsed.Nanoseconds()), n),
		allocsPerOp: ratio(float64(s.c1.proc.allocs-s.c0.proc.allocs), n),
	}
}

func endToEnd(w *workload, st stage, setup time.Duration) []metric {
	return []metric{
		{"ops_per_s", st.opsPerSec, "1/s"},
		{"set_p50_us", st.lat[opSet].p50, "us"},
		{"get_p50_us", st.lat[opGet].p50, "us"},
		{"heap_bytes_per_key", float64(st.heapBytes) / float64(w.keys), "B"},
		{"setup_s", setup.Seconds(), "s"},
	}
}

// durableFigures are the figures only a durable, replicated deployment
// has; in the traced run of an in-memory workload they come from its
// repl rung.
func durableFigures(s stage) []metric {
	writes := float64(s.writes)
	userBytes := 16 * writes
	lf0, lf1 := s.c0.leaderFS, s.c1.leaderFS
	records := float64(s.c1.followerPos - s.c0.followerPos)
	return []metric{
		{"disk_bytes_per_user_byte", ratio(float64(s.c1.proc.writeBytes-s.c0.proc.writeBytes), userBytes), "ratio"},
		{"recover_s", s.recover.Seconds(), "s"},
		{"repl_lag_p50_us", quantile(s.smp.lag, 0.5) / 1e3, "us"},
		{"repl_lag_p99_us", quantile(s.smp.lag, 0.99) / 1e3, "us"},
		{"wal.fsyncs_per_write", ratio(float64(lf1.syncs-lf0.syncs), writes), "count"},
		{"wal.fsync_p50_us", quantile(s.syncLat, 0.5) / 1e3, "us"},
		{"wal.fsync_p99_us", quantile(s.syncLat, 0.99) / 1e3, "us"},
		{"wal.log_bytes_per_write", ratio(float64(lf1.bytes[kindSegment]-lf0.bytes[kindSegment]), writes), "B"},
		{"wal.snapshot_bytes_per_user_byte", ratio(float64(lf1.bytes[kindSnapshot]-lf0.bytes[kindSnapshot]), userBytes), "ratio"},
		{"wal.checkpoints_per_s", float64(lf1.snapshots-lf0.snapshots) / s.elapsed.Seconds(), "1/s"},
		{"wal.live_bytes_peak", float64(s.smp.livePeak), "B"},
		{"repl.gsn_lag_p99", quantile(s.smp.gsnLag, 0.99), "count"},
		{"repl.follower_fsyncs_per_record", ratio(float64(s.c1.followerFS.syncs-s.c0.followerFS.syncs), records), "count"},
	}
}

func perLayer(st, durable stage, rungs map[string]rung, br batchRung, mr microResult) []metric {
	c0, c1 := st.c0, st.c1
	ops := float64(st.completed)
	scans := float64(st.scans)
	ms := []metric{
		{"ftree.find_ns", mr.findNs, "ns"},
		{"ftree.scan_ns_per_entry", mr.scanNsPerEntry, "ns"},
		{"ftree.multiinsert_ns_per_entry", mr.multiInsertNsPerEntry, "ns"},
		{"vm.acquire_release_ns", mr.acquireReleaseNs, "ns"},
		{"vm.set_ns", mr.setNs, "ns"},
		{"vm.uncollected_p99", quantile(st.smp.uncollected, 0.99), "count"},
		{"core.read_ns", mr.coreReadNs, "ns"},
		{"core.update_ns", mr.coreUpdateNs, "ns"},
		{"shard.get_ns", mr.shardGetNs, "ns"},
		{"shard.view_consistent_ns", mr.viewConsistentNs, "ns"},
		{"shard.consistent_retries_per_view", ratio(float64(c1.retries-c0.retries), scans), "count"},
		{"shard.fenced_per_view", ratio(float64(c1.fenced-c0.fenced), scans), "count"},
		{"batch.commits_per_write", ratio(float64(c1.batches-c0.batches), float64(st.writes)), "count"},
		{"batch.submit_commit_p50_us", quantile(br.submitCommit, 0.5) / 1e3, "us"},
		{"batch.submit_commit_p99_us", quantile(br.submitCommit, 0.99) / 1e3, "us"},
		{"batch.allocs_per_write", ratio(br.allocs, float64(br.writes)), "count"},
	}
	ms = append(ms, durableFigures(durable)...)
	ms = append(ms,
		metric{"net.client.scan_p50_us", st.lat[opScan].p50, "us"},
		metric{"net.client.set_p90_us", st.lat[opSet].p90, "us"},
		metric{"net.client.get_p90_us", st.lat[opGet].p90, "us"},
		metric{"net.client.scan_p90_us", st.lat[opScan].p90, "us"},
		metric{"net.client.set_p99_us", st.lat[opSet].p99, "us"},
		metric{"net.client.get_p99_us", st.lat[opGet].p99, "us"},
		metric{"net.client.scan_p99_us", st.lat[opScan].p99, "us"},
		metric{"net.ping_rtt_p50_us", st.ping.p50, "us"},
		metric{"net.server_writes_per_op", ratio(float64(c1.lnWrites-c0.lnWrites), ops), "count"},
		metric{"net.bytes_per_op", ratio(float64(c1.lnBytes-c0.lnBytes), ops), "B"},
		metric{"proc.cpu_us_per_op", ratio(float64((c1.proc.cpu - c0.proc.cpu).Microseconds()), ops), "us"},
		metric{"proc.allocs_per_op", ratio(float64(c1.proc.allocs-c0.proc.allocs), ops), "count"},
		metric{"proc.gc_cpu_frac", ratio(c1.proc.gcCPU-c0.proc.gcCPU, c1.proc.totalCPU-c0.proc.totalCPU), "ratio"},
	)
	for _, n := range rungNames {
		ms = append(ms,
			metric{"ladder." + n + ".ns_per_op", rungs[n].nsPerOp, "ns"},
			metric{"ladder." + n + ".allocs_per_op", rungs[n].allocsPerOp, "count"},
		)
	}
	return ms
}

// printStage writes a human-readable summary, with sample counts.
func printStage(name string, traced bool, st stage, setup time.Duration) {
	fmt.Printf("workload %s traced=%v: %d ops in %.2fs = %.0f ops/s, attempted %d, failed %d, setup %.3fs\n",
		name, traced, st.completed, st.elapsed.Seconds(), float64(st.completed)/st.elapsed.Seconds(), st.attempted, st.failed, setup.Seconds())
	// Steal is time other guests of the hypervisor took from this
	// machine's CPUs: noise from outside, for reading the figures.
	fmt.Printf("  cpu steal while measured: %d ticks (%.1f%% of one CPU)\n", st.c1.proc.steal-st.c0.proc.steal,
		100*float64(st.c1.proc.steal-st.c0.proc.steal)/100/st.elapsed.Seconds())
	for k := opKind(0); k < numKinds; k++ {
		p := st.lat[k]
		fmt.Printf("  %-4s p50 %9.1fus  p90 %9.1fus  p99 %9.1fus  n=%d\n", kindNames[k], p.p50, p.p90, p.p99, p.n)
	}
	if st.recover > 0 {
		fmt.Printf("  recover %.3fs, disk bytes/user byte %.2f\n", st.recover.Seconds(),
			ratio(float64(st.c1.proc.writeBytes-st.c0.proc.writeBytes), 16*float64(st.writes)))
	}
	if st.smp != nil && len(st.smp.lag) > 0 {
		fmt.Printf("  repl lag p50 %.1fus p99 %.1fus (n=%d)\n",
			quantile(st.smp.lag, 0.5)/1e3, quantile(st.smp.lag, 0.99)/1e3, len(st.smp.lag))
	}
}
