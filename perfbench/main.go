// Command perfbench is pcomb's serving-path benchmark. It runs the RESP
// server in process on a file-backed ServerStore (default simulated
// persistence costs, SyncNone), drives one workload over loopback TCP from
// a seeded load generator whose oracle checks every reply, stops the
// server cleanly, and audits the reopened store.
//
//	bash perfbench/run.sh --workload kv-pipelined --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload twice on one store, bare and then through timing wrappers
// around the server's store and listener, runs the isolated rungs of the
// layer ladder, writes the wrapper spans as a Chrome trace, and prints the
// per-layer metrics. Every metric prints as "metric <name> <value> <unit>";
// the last line is one JSON object with keys correct, attempted, failed and
// metrics. A wrong, missing or error reply, or a failed audit, makes the
// run exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"pcomb/internal/pmem"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	name  string
	value float64
	unit  string
}

// result is the final JSON line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
	order     []metric
}

const (
	setups  = 9  // set-ups per untraced run; setup_s is their median
	reopens = 15 // reopens per run; restart_s is their median
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv-pipelined, kv-paced or queue-epoch")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	secs := fs.Float64("seconds", 10, "measured seconds (split over the bare and traced phases with --trace 1)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span trace and ladder rungs")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for store files and span traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (kv-pipelined, kv-paced, queue-epoch), --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *secs, *trace)
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	epoch := "off"
	if w.epoch {
		epoch = epochCadence.String()
	}
	fmt.Fprintf(stdout, "settings: conns=%d flush_ops=%d flush_deadline=%v map_capacity=%d queue_capacity=%d epoch=%s sync=none pwb_ns=%d pfence_ns=%d psync_ns=%d\n",
		numConns, flushOps, flushDeadline, w.mapCapacity, queueCapacity, epoch, pmem.DefaultPwbNs, pmem.DefaultPfenceNs, pmem.DefaultPsyncNs)

	b := newBench(w, *seed, runDir)
	dur := time.Duration(*secs * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = b.traced(dur, filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed)), stdout)
	} else {
		res, err = b.untraced(dur, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range b.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL:", e)
	}
	fmt.Fprintf(stdout, "fail_frac: %g (%d of %d)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, m := range res.order {
		fmt.Fprintf(stdout, "metric %s %g %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func (b *bench) result(ms []metric) *result {
	r := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]map[string]any{},
		order:     ms,
	}
	for _, m := range ms {
		r.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return r
}

// warmup precedes every measured window.
func warmup(dur time.Duration) time.Duration {
	return min(max(dur/10, 100*time.Millisecond), time.Second)
}

// untraced is the end-to-end run: set up several times (setup_s is the
// median), measure one window with no wrappers, stop, reopen several times
// (restart_s is the median) and audit.
func (b *bench) untraced(dur time.Duration, out io.Writer) (*result, error) {
	var setupS []float64
	var s *session
	for i := 0; i < setups; i++ {
		t := time.Now()
		var err error
		if s, err = b.setup(i); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		if i < setups-1 {
			if err := b.teardown(s); err != nil {
				return nil, err
			}
			os.Remove(b.opts.Path)
			// Hand this store's memory back to the OS, so every set-up
			// starts from the same state, as a fresh process would.
			debug.FreeOSMemory()
		}
	}
	p := b.measure(s, warmup(dur), dur, nil, false)
	sent := float64(s.sent())
	if err := b.teardown(s); err != nil {
		return nil, err
	}
	// The heap's counters are only safe to read once the store is closed,
	// so persistence counts cover the store's whole life: set-up, warm-up,
	// the window and the drain.
	pm := s.store.Heap().Stats()
	restartS, err := b.restarts(reopens)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "samples: commands=%d waits=%d\n", len(p.lat), len(p.wait))
	fmt.Fprintf(out, "tails: lat_p99_us=%g wait_p90_us=%g wait_p99_us=%g late_p50_us=%g late_p99_us=%g\n",
		quantileUs(p.lat, 0.99), quantileUs(p.wait, 0.9), quantileUs(p.wait, 0.99), quantileUs(p.late, 0.5), quantileUs(p.late, 0.99))
	return b.result([]metric{
		{"setup_s", median(setupS), "s"},
		{"ops_per_s", p.opsPerSec(), "1/s"},
		{"lat_p50_us", quantileUs(p.lat, 0.5), "us"},
		{"lat_p90_us", quantileUs(p.lat, 0.9), "us"},
		{"wait_p50_us", quantileUs(p.wait, 0.5), "us"},
		{"restart_s", median(restartS), "s"},
		{"pwbs_per_op", float64(pm.Pwbs) / sent, "pwb/op"},
		{"pfences_per_op", float64(pm.Pfences) / sent, "pfence/op"},
		{"cpu_us_per_op", p.perOp(float64(p.z.cpu-p.a.cpu) / 1e3), "us"},
		{"max_rss_mb", maxRSSMiB(), "MiB"},
	}), nil
}

// traced is the per-layer run: one set-up, a bare phase and a traced phase
// of dur/2 each on the same store (their ops_per_s ratio is the tracing
// overhead), the ladder rungs, then the clean stop, reopen and audit.
func (b *bench) traced(dur time.Duration, tracePath string, out io.Writer) (*result, error) {
	half := dur / 2
	warm := warmup(half)
	s, err := b.setup(0)
	if err != nil {
		return nil, err
	}
	bare := b.measure(s, warm, half, nil, false)
	if err := b.stop(s); err != nil {
		return nil, err
	}
	tr := newTracer(b.clk)
	ts, err := b.serve(s.store, tr, b.gens, true)
	if err != nil {
		s.store.Close()
		return nil, err
	}
	ts.store = s.store
	p := b.measure(ts, warm, half, tr, b.w.epoch)
	sent := float64(s.sent() + ts.sent())
	if err := b.teardown(ts); err != nil {
		return nil, err
	}
	pm := s.store.Heap().Stats() // whole store life, as in untraced
	if err := tr.checkAttribution(); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(tracePath, b.w.name); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "trace: %s\n", tracePath)
	if _, err := b.restarts(1); err != nil {
		return nil, err
	}

	rung := min(max(dur/10, 200*time.Millisecond), time.Second)
	decNs, decAllocs, err := b.rungDecode(rung)
	if err != nil {
		return nil, err
	}
	iso, err := b.rungStore(rung)
	if err != nil {
		return nil, err
	}
	noop, err := b.rungNoop(warmup(rung), rung)
	if err != nil {
		return nil, err
	}
	genNs := b.rungLoadgen(rung)

	var self, stageNs, storeNs, reads, writes int64
	var flush, barrier, writeNs []uint32
	for _, ct := range tr.conns {
		self += ct.self
		stageNs += ct.stageNs
		storeNs += ct.storeNs
		reads += ct.reads
		writes += ct.writes
		flush = append(flush, ct.flush...)
		barrier = append(barrier, ct.barrier...)
		writeNs = append(writeNs, ct.writeNs...)
	}
	simNs := float64(pm.Pwbs)*pmem.DefaultPwbNs + float64(pm.Pfences)*pmem.DefaultPfenceNs + float64(pm.Psyncs)*pmem.DefaultPsyncNs
	usedCPU := bare.z.usedCPU - bare.a.usedCPU
	return b.result([]metric{
		{"resp.decode_ns_per_cmd", decNs, "ns"},
		{"resp.decode_allocs_per_cmd", decAllocs, "alloc/cmd"},
		{"server.window_ops_mean", p.batch.Mean(), "op"},
		{"server.window_ops_p99", p.batch.Quantile(0.99), "op"},
		{"server.self_ns_per_op", p.perOp(float64(self)), "ns"},
		{"store.stage_ns_per_op", p.perOp(float64(stageNs)), "ns"},
		{"store.flush_us_p50", quantileUs(flush, 0.5), "us"},
		{"store.flush_us_p99", quantileUs(flush, 0.99), "us"},
		{"store.busy_frac", ratio(float64(storeNs), float64(numConns)*float64(half)), "frac"},
		{"store.barrier_us_p50", quantileUs(barrier, 0.5), "us"},
		{"store.barrier_us_p99", quantileUs(barrier, 0.99), "us"},
		{"store.iso_ops_per_s", iso, "1/s"},
		{"pmem.psyncs_per_op", float64(pm.Psyncs) / sent, "psync/op"},
		{"pmem.sim_ns_per_op", simNs / sent, "ns"},
		{"epoch.closes_per_s", float64(p.z.closed-p.a.closed) / p.secs, "1/s"},
		{"epoch.lag_p99", quantile(p.lags, 0.99), "epoch"},
		{"queue.rpop_hit_frac", ratio(float64(p.hits), float64(p.pops)), "frac"},
		{"tcp.write_calls_per_op", p.perOp(float64(writes)), "call/op"},
		{"tcp.read_calls_per_op", p.perOp(float64(reads)), "call/op"},
		{"tcp.write_us_p50", quantileUs(writeNs, 0.5), "us"},
		{"tcp.noop_ops_per_s", noop.opsPerSec(), "1/s"},
		{"tcp.noop_lat_p50_us", quantileUs(noop.lat, 0.5), "us"},
		{"loadgen.late_p50_us", quantileUs(bare.late, 0.5), "us"},
		{"loadgen.late_p99_us", quantileUs(bare.late, 0.99), "us"},
		{"loadgen.ns_per_op", genNs, "ns"},
		{"go.alloc_bytes_per_op", bare.perOp(float64(bare.z.allocB - bare.a.allocB)), "B/op"},
		{"go.gc_cpu_frac", ratio(bare.z.gcCPU-bare.a.gcCPU, usedCPU), "frac"},
		{"trace.overhead_frac", 1 - ratio(p.opsPerSec(), bare.opsPerSec()), "frac"},
	}), nil
}
