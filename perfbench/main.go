// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed time from a single process, checks
// every output, and prints each metric by name with its unit; the last
// line of standard output is a JSON summary. See README.md.
//
//	perfbench -workload sweep|serve|multicore -seed 1 -seconds 20 -trace 0|1
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
)

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json; TestMetricsMatchBenchmarkJSON keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"sim_ms_p50", "ms"},
	{"sims_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"trace.synth_ns_per_inst", "ns"},
	{"trace.insts_per_commit", "ratio"},
	{"trace.synthesized", "count"},
	{"pipeline.live_ns_per_cycle", "ns"},
	{"pipeline.replay_ns_per_cycle", "ns"},
	{"pipeline.fastforward_ns_per_cycle", "ns"},
	{"pipeline.ns_per_commit", "ns"},
	{"pipeline.cycles", "count"},
	{"pipeline.committed", "count"},
	{"pipeline.fetched", "count"},
	{"pipeline.wrong_path_frac", "ratio"},
	{"core.new_simulator_us", "us"},
	{"core.finish_us", "us"},
	{"core.close_us", "us"},
	{"detector.ns_per_decision", "ns"},
	{"detector.switches", "count"},
	{"runner.busy_frac", "ratio"},
	{"runner.jobs", "count"},
	{"multicore.profile_ms", "ms"},
	{"multicore.run_ms", "ms"},
	{"multicore.parallel_speedup", "x"},
	{"simrun.key_us", "us"},
	{"simrun.digest_us", "us"},
	{"simrun.report_us", "us"},
	{"simserver.decode_us", "us"},
	{"simserver.validate_us", "us"},
	{"simserver.encode_us", "us"},
	{"simserver.handler_us", "us"},
	{"simserver.transport_us", "us"},
	{"simserver.unattributed_us", "us"},
	{"simserver.simulations", "count"},
	{"simserver.batch_items_per_s", "1/s"},
	{"simserver.warm_req_per_s", "1/s"},
	{"resultstore.memory_get_us", "us"},
	{"resultstore.disk_get_us", "us"},
	{"resultstore.disk_put_ms", "ms"},
	{"resultstore.entry_bytes", "B"},
	{"resultstore.memory_hit_frac", "ratio"},
	{"resultstore.disk_hit_frac", "ratio"},
	{"tracing.overhead_frac", "ratio"},
	{"tracing.unattributed_frac", "ratio"},
}

// digestsJSON holds each workload's canonical output digest at the
// default seed. A run at that seed whose outputs digest differently is
// wrong.
//
//go:embed digests.json
var digestsJSON []byte

const defaultSeed = 1

// outcome is everything one invocation measured and checked.
type outcome struct {
	tally  tally
	checks []string // failed output checks
	e2e    map[string]float64
	layer  map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
	o.tally.failAll()
}

// expectEqual flags a difference between two runs of the same inputs.
func (o *outcome) expectEqual(what string, a, b any) {
	if fmt.Sprint(a) != fmt.Sprint(b) {
		o.fail("%s differ between runs of the same seed: %v vs %v", what, a, b)
	}
}

// checkDigest compares an output digest with the committed one at the
// default seed.
func (o *outcome) checkDigest(workload string, seed uint64, digest string) {
	fmt.Printf("output digest: %s\n", digest)
	if seed != defaultSeed {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		o.fail("digests.json: %v", err)
		return
	}
	if want[workload] != digest {
		o.fail("output digest %s, committed digest for %s at seed %d is %q", digest, workload, seed, want[workload])
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
}

// workdir holds the serve workload's stores and the span files, inside
// the checkout the benchmark runs from.
const workdir = ".bench_build/perfbench"

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, serve or multicore")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "how long to measure: rounds run while the next one is expected to end in time")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !report(o, out) {
		os.Exit(1)
	}
}

// run sets up, measures and checks one workload.
func run(o options) (*outcome, error) {
	nproc := runtime.NumCPU()
	printMeta(o, nproc)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	deadline := time.Duration(o.seconds) * time.Second
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	var err error
	switch o.workload {
	case "sweep":
		err = runSim(newSweep(o.seed, nproc), out, deadline, tr, nproc)
	case "multicore":
		err = runSim(newMultiCore(o.seed), out, deadline, tr, nproc)
	case "serve":
		w := &serveWorkload{seed: o.seed, nproc: nproc}
		err = runServe(w, out, deadline, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want sweep, serve or multicore)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	out.e2e["rss_peak_mb"] = peakRSSMB()
	if tr != nil {
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, tr.snapshot()); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s\n", path)
	}
	return out, nil
}

// measure sets up setupRepeats times, then calls round until the next
// call would be expected to end after the deadline, judging by the last
// call's duration; it calls it at least once. After each round it sets
// up setupsPerRound more times, so that the set-up median spans the
// whole run rather than its first second. It returns that median. The
// teardown setup returns, if any, runs outside the timed region.
func measure(deadline time.Duration, setup func() (func() error, error), round func()) (float64, error) {
	var samples []float64 // s
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			start := time.Now()
			teardown, err := setup()
			samples = append(samples, time.Since(start).Seconds())
			if err == nil && teardown != nil {
				err = teardown()
			}
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		return nil
	}
	if err := setUp(setupRepeats); err != nil {
		return 0, err
	}
	start := time.Now()
	for {
		t := time.Now()
		round()
		if err := setUp(setupsPerRound); err != nil {
			return 0, err
		}
		if time.Since(start)+time.Since(t) > deadline {
			break
		}
	}
	fmt.Printf("setup samples (s): n=%d %.4f\n", len(samples), samples)
	return median(samples), nil
}

// printMeta records the conditions of the run.
func printMeta(o options, nproc int) {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s revision=%s dirty=%s\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, rev, dirty)
	fmt.Println("model: unvalidated (no reference measurements); simulated statistics start after each config's FastForward")
}

// printDist prints a latency sample with its sample count and tail.
func printDist(label string, xs []float64) {
	d := summarize(xs)
	fmt.Printf("%-14s n=%d p50=%.4f ms p%g=%.4f ms\n", label, d.N, d.P50, d.TailP, d.Tail)
}

// report prints every metric by name with its unit, then the JSON
// summary line. It returns whether the run was correct.
func report(o options, out *outcome) bool {
	attempted, failed := out.tally.counts()
	correct := len(out.checks) == 0 && failed == 0 && attempted > 0
	for _, c := range out.checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	fmt.Printf("failed_frac: %d/%d = %g\n", failed, attempted, out.tally.frac())

	defs, vals := endToEnd, out.e2e
	if o.trace == 1 {
		defs, vals = perLayer, out.layer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := vals[d.name]
		fmt.Printf("metric %-36s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	fmt.Println(string(line))
	return correct
}

// runSim measures the sweep or multicore workload.
func runSim(w *simWorkload, out *outcome, deadline time.Duration, tr *tracer, nproc int) error {
	ctx := context.Background()
	var plain, traced []*simRound
	setup, err := measure(deadline, w.setup, func() {
		plain = append(plain, w.round(ctx, nil))
		if tr != nil {
			traced = append(traced, w.round(ctx, tr))
		}
	})
	if err != nil {
		return err
	}
	out.e2e["setup_s"] = setup

	first := plain[0]
	for i, r := range append(append([]*simRound(nil), plain...), traced...) {
		out.tally.add(len(r.rec.jobs), r.failed)
		if r.runErr != nil {
			out.fail("round %d: %v", i, r.runErr)
		}
		for _, j := range r.rec.jobs {
			if j.err != nil {
				fmt.Printf("job %s failed: %v\n", j.name, j.err)
				break
			}
		}
		out.expectEqual("output digests", first.digest, r.digest)
		out.expectEqual("work counts", first.rec.work, r.rec.work)
	}
	out.checkDigest(w.name, w.seed, first.digest)
	fmt.Printf("work counts per round: %+v\n", first.rec.work)

	// Rates are the median over one-second windows of every round, so a
	// slow stretch of the host moves them less than a pooled total would.
	var lat, rate, mcps []float64
	for i, r := range plain {
		fmt.Printf("round %d: wall %.3f s, job p50 %.3f ms\n", i, r.wall.Seconds(), median(r.jobsDur))
		lat = append(lat, r.jobsDur...)
		m, j := r.windowRates()
		mcps = append(mcps, m...)
		rate = append(rate, j...)
	}
	fmt.Printf("rounds: %d untraced, %d traced; rate windows: %d of %v\n", len(plain), len(traced), len(rate), rateWindow)
	printDist("runner job", lat)
	out.e2e["sim_mcycles_per_s"] = median(mcps)
	out.e2e["sim_ms_p50"] = percentile(lat, 50)
	out.e2e["sims_per_s"] = median(rate)
	// A sweep's client operation is the runner job itself.
	out.e2e["op_ms_p50"] = out.e2e["sim_ms_p50"]
	if tr != nil {
		simLayerMetrics(w, out, plain, traced, tr, nproc)
	}
	return nil
}

// simLayerMetrics fills the per-layer metrics of a sweep or multicore
// traced run. Timings use every traced round; counts and the sampled
// passes use the first, so they do not depend on how many rounds fit.
func simLayerMetrics(w *simWorkload, out *outcome, plain, traced []*simRound, tr *tracer, nproc int) {
	spans := tr.snapshot()
	first := traced[0]
	cfgByRun := map[string]core.Config{}
	var cfgs []core.Config
	for _, j := range first.rec.jobs {
		cfgByRun[j.name] = j.cfg
		cfgs = append(cfgs, j.cfg)
	}
	var plainWall, tracedWall, busy []float64
	var tracedTotal float64
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall.Seconds())
		tracedTotal += r.wall.Seconds()
	}
	for _, r := range plain {
		plainWall = append(plainWall, r.wall.Seconds())
		busy = append(busy, r.busyFrac(w.workers))
	}
	pipelineLayers(out, spans, cfgByRun, first.rec.machine, first.rec.streams, cfgs, w.seed)
	out.layer["runner.busy_frac"] = median(busy)
	out.layer["runner.jobs"] = float64(len(plain[0].rec.jobs))
	out.layer["multicore.profile_ms"] = median(durationsUS(spans, "multicore.profile", "")) / 1e3
	out.layer["multicore.run_ms"] = median(durationsUS(spans, "multicore.run", "")) / 1e3
	speedup, err := parallelSpeedup(cfgs, w.seed, nproc)
	if err != nil {
		out.fail("parallel speedup pass: %v", err)
	}
	out.layer["multicore.parallel_speedup"] = speedup
	tracingLayers(out, spans, median(plainWall), median(tracedWall), float64(w.workers)*tracedTotal)
}

// tracingLayers reports tracing overhead and the unattributed share of
// the traced time: capacity (workers × traced wall) minus the sum of
// every span's self time.
func tracingLayers(out *outcome, spans []span, plainWall, tracedWall, capacity float64) {
	out.layer["tracing.overhead_frac"] = tracedWall/plainWall - 1
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	var attributed float64
	for _, layer := range layers {
		attributed += self[layer]
		fmt.Printf("layer self time %-12s %10.4f s (%.1f%%)\n", layer, self[layer], 100*self[layer]/capacity)
	}
	out.layer["tracing.unattributed_frac"] = (capacity - attributed) / capacity
	fmt.Printf("tracing: untraced %.4f s, traced %.4f s, unattributed %.2f%% of %.4f s\n",
		plainWall, tracedWall, 100*out.layer["tracing.unattributed_frac"], capacity)
}
