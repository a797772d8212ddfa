package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/experiments"
	"repro/internal/multicore"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/simrun"
	"repro/internal/trace"
)

// Scale of the two simulation workloads. Quanta are reduced from the
// recorded full-scale runs (64) to 4, so that one round takes 10-13 s
// and a 30-second run measures two or more rounds: that is what lets a
// run check that repeated rounds agree. At 4 quanta fast-forward is a
// third of a sweep run's cycles and an ADTS run spends half of them
// under its initial policy; README.md gives the shares per workload.
const (
	sweepQuanta    = 4
	mcQuanta       = 4
	mcIntervals    = 2
	mcCores        = 2
	replaySamples  = 8  // configs in the record/replay pass
	speedupSamples = 16 // 2-core configs in the GOMAXPROCS pass
	setupRepeats   = 5  // set-ups before the first round
	setupsPerRound = 3  // set-ups after each round

	rateWindow = time.Second // window of the sweep and multicore rates
)

// simWorkload is the paper's sweep or the multi-core allocation study:
// an experiments entry point run through the runner with a recording
// executor in place of the local one.
type simWorkload struct {
	name    string
	seed    uint64
	workers int
	opts    experiments.Options
	run     func(context.Context, experiments.Options) error
	warmup  core.Config // the set-up's warm-up run
}

func newSweep(seed uint64, nproc int) *simWorkload {
	o := experiments.Options{Threads: 8, Quanta: sweepQuanta, Intervals: 1, Seed: seed, Workers: nproc}
	return &simWorkload{
		name:    "sweep",
		seed:    seed,
		workers: nproc,
		opts:    o,
		run: func(ctx context.Context, o experiments.Options) error {
			_, err := experiments.RunSweep(ctx, o, nil, nil)
			return err
		},
		warmup: o.ADTSConfig(o.MixNames()[0], detector.Type3, 2, 0),
	}
}

// newMultiCore runs with one runner worker so that each run's two cores
// occupy the two CPUs: this is the only path where one simulation spans
// several CPUs.
func newMultiCore(seed uint64) *simWorkload {
	o := experiments.Options{Threads: 8, Quanta: mcQuanta, Intervals: mcIntervals, Seed: seed, Workers: 1}
	warmup := o.FixedConfig(o.MixNames()[0], policy.ICOUNT, 0)
	warmup.Cores, warmup.Allocation = mcCores, "synpa"
	return &simWorkload{
		name:    "multicore",
		seed:    seed,
		workers: 1,
		opts:    o,
		run: func(ctx context.Context, o experiments.Options) error {
			_, err := experiments.RunMultiCore(ctx, o, []int{mcCores})
			return err
		},
		warmup: warmup,
	}
}

// setup is the process-level set-up before the first timed operation:
// the trace catalogue and one untimed warm-up run that fills the
// pipeline shell pool. Pools and trace caches are drained first so that
// every repeat pays the same cost.
func (w *simWorkload) setup() (func() error, error) {
	pipeline.DrainPools()
	trace.FlushTraceCache()
	if err := loadCatalogue(w.opts.Threads); err != nil {
		return nil, err
	}
	_, err := simrun.Run(context.Background(), w.warmup)
	return nil, err
}

// loadCatalogue validates every mix and profile and builds each mix's
// programs once.
func loadCatalogue(threads int) error {
	for _, p := range trace.Profiles() {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	for _, m := range trace.Mixes() {
		if err := m.Validate(); err != nil {
			return err
		}
		if _, err := m.Programs(threads, 1); err != nil {
			return err
		}
	}
	return nil
}

// jobRecord is one settled runner job.
type jobRecord struct {
	name   string
	cfg    core.Config
	start  time.Time
	dur    time.Duration
	cycles int64 // simulated, summed over cores
	digest string
	err    error
}

// recorder is the runner.Executor the benchmark installs. Untraced, it
// times the job's own Run closure, so the production job body runs
// unchanged. Traced, it makes the same calls the job makes with a span
// around each.
type recorder struct {
	tr *tracer

	mu      sync.Mutex
	jobs    []jobRecord
	work    work
	machine machineWork
	streams []detStream
}

// detStream is one ADTS run's detector input, kept for the replay pass.
type detStream struct {
	cfg      detector.Config
	quanta   []detector.QuantumStats
	switches uint64
}

func (r *recorder) Execute(ctx context.Context, j runner.Job[core.Result]) (core.Result, error) {
	cfg, _ := j.Payload.(core.Config)
	var (
		res core.Result
		st  simTrace
		err error
	)
	start := time.Now()
	if r.tr == nil {
		res, err = j.Run(ctx)
	} else {
		root := r.tr.begin("runner.job", j.Name, -1)
		if cfg.Cores > 1 {
			res, err = multicoreTraced(r.tr, j.Name, root, cfg)
		} else {
			res, st, err = simulateTraced(r.tr, j.Name, root, cfg)
		}
		r.tr.end(root)
	}
	rec := jobRecord{name: j.Name, cfg: cfg, start: start, dur: time.Since(start), err: err}
	if err == nil {
		rec.cycles = cyclesOf(cfg, res)
		if cerr := checkResult(cfg, res); cerr != nil {
			rec.err = fmt.Errorf("output check: %w", cerr)
		}
		rec.digest = simrun.ResultDigest(res)
	}

	r.mu.Lock()
	r.jobs = append(r.jobs, rec)
	if err == nil {
		r.work.addResult(cfg, res)
		r.machine.add(st.machine)
		if st.quanta != nil {
			r.streams = append(r.streams, detStream{cfg: cfg.Detector, quanta: st.quanta, switches: res.Detector.Switches})
		}
	}
	r.mu.Unlock()
	return res, err
}

// simRound is one complete run of the workload's experiment.
type simRound struct {
	start   time.Time
	wall    time.Duration
	rec     *recorder
	digest  string
	failed  int
	runErr  error
	jobsDur []float64 // ms
}

// round runs the experiment once; tr nil is the untraced mode.
func (w *simWorkload) round(ctx context.Context, tr *tracer) *simRound {
	rec := &recorder{tr: tr}
	o := w.opts
	o.Executor = rec
	start := time.Now()
	err := w.run(ctx, o)
	r := &simRound{start: start, wall: time.Since(start), rec: rec, runErr: err}

	// Jobs settle in completion order; the digest is over name order.
	sort.Slice(rec.jobs, func(i, k int) bool { return rec.jobs[i].name < rec.jobs[k].name })
	names := make([]string, 0, len(rec.jobs))
	digests := make([]string, 0, len(rec.jobs))
	for _, j := range rec.jobs {
		r.jobsDur = append(r.jobsDur, float64(j.dur)/1e6)
		if j.err != nil {
			r.failed++
			continue
		}
		names = append(names, j.name)
		digests = append(digests, j.digest)
	}
	r.digest = outputDigest(names, digests)
	return r
}

// outputDigest is a workload's canonical output digest: SHA-256 over
// one "id digest" line per result.
func outputDigest(ids, digests []string) string {
	h := sha256.New()
	for i, d := range digests {
		fmt.Fprintf(h, "%s %s\n", ids[i], d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// windowRates splits the round into whole windows of rateWindow and
// returns, per window, the simulated Mcycles and the jobs done in it per
// second. A job's work is spread evenly over its duration, so a window
// counts the part of each job that ran inside it. The round's last
// partial window, where workers drain, is left out; busyFrac covers it.
func (r *simRound) windowRates() (mcps, jobs []float64) {
	n := int(r.wall / rateWindow)
	cyc := make([]float64, n)
	done := make([]float64, n)
	for _, j := range r.rec.jobs {
		if j.err != nil || j.dur <= 0 {
			continue
		}
		from := j.start.Sub(r.start)
		to := from + j.dur
		for k := int(from / rateWindow); k < n && time.Duration(k)*rateWindow < to; k++ {
			lo := max(from, time.Duration(k)*rateWindow)
			hi := min(to, time.Duration(k+1)*rateWindow)
			share := float64(hi-lo) / float64(j.dur)
			cyc[k] += share * float64(j.cycles)
			done[k] += share
		}
	}
	for k := range cyc {
		mcps = append(mcps, cyc[k]/rateWindow.Seconds()/1e6)
		jobs = append(jobs, done[k]/rateWindow.Seconds())
	}
	return mcps, jobs
}

// busyFrac is Σ job time ÷ (workers × round wall).
func (r *simRound) busyFrac(workers int) float64 {
	var sum float64
	for _, d := range r.jobsDur {
		sum += d / 1e3
	}
	return sum / (float64(workers) * r.wall.Seconds())
}

// detectorReplay replays every recorded ADTS stream on a fresh detector
// and returns the time per decision and the switch count. A replay that
// disagrees with the run's own switch count is an error: the detector's
// decisions must depend on its input stream alone.
func detectorReplay(streams []detStream) (nsPerDecision float64, switches uint64, err error) {
	var total time.Duration
	var decisions int
	for _, s := range streams {
		d := detector.New(s.cfg)
		start := time.Now()
		for _, q := range s.quanta {
			d.OnQuantumEnd(q)
		}
		total += time.Since(start)
		decisions += len(s.quanta)
		got := d.Stats().Switches
		if got != s.switches {
			return 0, 0, fmt.Errorf("detector replay made %d switches, the run made %d", got, s.switches)
		}
		switches += got
	}
	if decisions == 0 {
		return 0, 0, nil
	}
	return float64(total.Nanoseconds()) / float64(decisions), switches, nil
}

// replayStats is the record/replay pass over a seeded sample of configs.
type replayStats struct {
	synthNsPerInst   float64
	liveNsPerCycle   float64
	replayNsPerCycle float64
}

// recordReplay times trace.CachedPrograms recording on a seeded sample
// of single-core configs, then steps each config once on live programs
// and once on replayed ones (alternating which goes first). Live and
// replayed runs must give identical results.
func recordReplay(cfgs []core.Config, seed uint64) (replayStats, error) {
	var single []core.Config
	for _, c := range cfgs {
		if c.Cores <= 1 {
			single = append(single, c)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x7265706c6179))
	rng.Shuffle(len(single), func(i, j int) { single[i], single[j] = single[j], single[i] })
	if len(single) > replaySamples {
		single = single[:replaySamples]
	}
	var synth, live, replay []float64
	for i, cfg := range single {
		per := cfg.FastForward + int64(cfg.Quanta)*quantumOf(cfg)
		if per > 65536 {
			per = 65536
		}
		trace.FlushTraceCache()
		start := time.Now()
		if _, err := trace.CachedPrograms(cfg.MixName, cfg.Threads, cfg.Seed, int(per)); err != nil {
			return replayStats{}, err
		}
		synth = append(synth, float64(time.Since(start).Nanoseconds())/float64(int64(cfg.Threads)*per))

		var digests [2]string
		for k := 0; k < 2; k++ {
			useReplay := (i+k)%2 == 1
			var progs []*trace.Program
			var err error
			if useReplay {
				progs, err = trace.CachedPrograms(cfg.MixName, cfg.Threads, cfg.Seed, int(per))
			} else {
				mix, _ := trace.MixByName(cfg.MixName)
				progs, err = mix.Programs(cfg.Threads, cfg.Seed)
			}
			if err != nil {
				return replayStats{}, err
			}
			c := cfg
			c.Programs = progs
			sim, err := core.NewSimulator(c)
			if err != nil {
				return replayStats{}, err
			}
			sim.Start()
			start := time.Now()
			for q := 0; q < c.Quanta; q++ {
				sim.StepQuantum()
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(int64(c.Quanta)*quantumOf(c))
			res := sim.Finish()
			sim.Close()
			if useReplay {
				replay = append(replay, ns)
				digests[1] = simrun.ResultDigest(res)
			} else {
				live = append(live, ns)
				digests[0] = simrun.ResultDigest(res)
			}
		}
		if digests[0] != digests[1] {
			return replayStats{}, fmt.Errorf("replayed %s/seed %d differs from live synthesis", cfg.MixName, cfg.Seed)
		}
	}
	trace.FlushTraceCache()
	return replayStats{synthNsPerInst: median(synth), liveNsPerCycle: median(live), replayNsPerCycle: median(replay)}, nil
}

// parallelSpeedup runs a seeded sample of the round's multi-core
// configs at GOMAXPROCS 1 and at GOMAXPROCS nproc (alternating which
// goes first) and returns the ratio of the summed wall times. Results
// must not depend on GOMAXPROCS.
func parallelSpeedup(cfgs []core.Config, seed uint64, nproc int) (float64, error) {
	var multi []core.Config
	for _, c := range cfgs {
		if c.Cores > 1 {
			multi = append(multi, c)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x73706565647570))
	rng.Shuffle(len(multi), func(i, j int) { multi[i], multi[j] = multi[j], multi[i] })
	if len(multi) > speedupSamples {
		multi = multi[:speedupSamples]
	}
	if len(multi) == 0 {
		return 0, nil
	}
	defer runtime.GOMAXPROCS(nproc)
	var wall [2]time.Duration // [0]: GOMAXPROCS 1, [1]: nproc
	for i, cfg := range multi {
		var digests [2]string
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			procs := 1
			if side == 1 {
				procs = nproc
			}
			runtime.GOMAXPROCS(procs)
			start := time.Now()
			res, err := multicore.RunConfig(cfg)
			wall[side] += time.Since(start)
			if err != nil {
				return 0, err
			}
			digests[side] = simrun.ResultDigest(res)
		}
		if digests[0] != digests[1] {
			return 0, fmt.Errorf("%s/%s differs between GOMAXPROCS 1 and %d", cfg.MixName, cfg.Allocation, nproc)
		}
	}
	return wall[0].Seconds() / wall[1].Seconds(), nil
}
