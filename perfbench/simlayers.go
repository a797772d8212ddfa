package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/multicore"
	"repro/internal/trace"
)

// work holds the deterministic work counts of a set of simulations.
// Equal inputs must give equal counts in every run, traced or not.
type work struct {
	Sims      int64  `json:"sims"`
	Cycles    int64  `json:"sim_cycles"` // fast-forward + measured, summed over cores
	Committed uint64 `json:"committed"`  // measured window
	Switches  uint64 `json:"detector_switches"`
}

func (w *work) addResult(cfg core.Config, res core.Result) {
	w.Sims++
	w.Cycles += cyclesOf(cfg, res)
	w.Committed += res.Committed
	w.Switches += res.Detector.Switches
}

// cyclesOf is a run's simulated cycles, fast-forward included, summed
// over its cores.
func cyclesOf(cfg core.Config, res core.Result) int64 {
	cores := int64(1)
	if cfg.Cores > 1 {
		cores = int64(cfg.Cores)
	}
	return cores * (cfg.FastForward + res.Cycles)
}

// machineWork holds counts only a traced run can read off the machine:
// cumulative over fast-forward and the measured window.
type machineWork struct {
	Cycles      int64  `json:"cycles"`
	Committed   uint64 `json:"committed"`
	Fetched     uint64 `json:"fetched"`
	WrongPath   uint64 `json:"wrong_path"`
	Synthesized uint64 `json:"synthesized"`
}

func (m *machineWork) add(o machineWork) {
	m.Cycles += o.Cycles
	m.Committed += o.Committed
	m.Fetched += o.Fetched
	m.WrongPath += o.WrongPath
	m.Synthesized += o.Synthesized
}

// quantumOf is the scheduling quantum a config runs with.
func quantumOf(cfg core.Config) int64 {
	if cfg.Detector.Quantum > 0 {
		return cfg.Detector.Quantum
	}
	return 8192
}

// checkResult is the benchmark's plausibility check on one result: the
// measured window has the configured length and the IPC lies inside
// the machine's commit width.
func checkResult(cfg core.Config, res core.Result) error {
	if want := int64(cfg.Quanta) * quantumOf(cfg); res.Cycles != want {
		return fmt.Errorf("measured %d cycles, want %d", res.Cycles, want)
	}
	cores := 1
	if cfg.Cores > 1 {
		cores = cfg.Cores
	}
	if !(res.AggregateIPC > 0) || res.AggregateIPC > float64(cores*cfg.Machine.CommitWidth) {
		return fmt.Errorf("aggregate IPC %v outside (0, %d]", res.AggregateIPC, cores*cfg.Machine.CommitWidth)
	}
	return nil
}

// simTrace is what simulateTraced observed beyond the result.
type simTrace struct {
	machine machineWork
	// quanta is the detector's input stream (ADTS runs only), replayed
	// later to time the detector alone.
	quanta []detector.QuantumStats
}

// simulateTraced runs one single-core config with the calls
// core.Simulator.Run makes, a span around each. The programs are built
// here, as NewSimulator builds them for a config without Programs, so
// the span can include them and the synthesized count can be read.
func simulateTraced(tr *tracer, run string, parent int, cfg core.Config) (core.Result, simTrace, error) {
	var st simTrace
	sp := tr.begin("core.new_simulator", run, parent)
	ps := tr.begin("trace.programs", run, sp)
	mix, ok := trace.MixByName(cfg.MixName)
	if !ok {
		tr.end(ps)
		tr.end(sp)
		return core.Result{}, st, fmt.Errorf("unknown mix %q", cfg.MixName)
	}
	progs, err := mix.Programs(cfg.Threads, cfg.Seed)
	tr.end(ps)
	if err != nil {
		tr.end(sp)
		return core.Result{}, st, err
	}
	cfg.Programs = progs
	sim, err := core.NewSimulator(cfg)
	tr.end(sp)
	if err != nil {
		return core.Result{}, st, err
	}

	sp = tr.begin("pipeline.fastforward", run, parent)
	sim.Start()
	tr.end(sp)
	for q := 0; q < cfg.Quanta; q++ {
		sp = tr.begin("pipeline.quantum", run, parent)
		sim.StepQuantum()
		tr.end(sp)
		if cfg.Mode == core.ModeADTS {
			st.quanta = append(st.quanta, sim.LastQuantum())
		}
	}
	sp = tr.begin("core.finish", run, parent)
	res := sim.Finish()
	tr.end(sp)

	m := sim.Machine()
	st.machine.Cycles = m.Now()
	st.machine.Committed = m.TotalCommitted()
	for i := 0; i < m.NumThreads(); i++ {
		st.machine.Fetched += m.State(i).Cum.Fetched
		st.machine.WrongPath += m.State(i).Cum.WrongFetched
	}
	for _, p := range progs {
		st.machine.Synthesized += p.Seq()
	}

	sp = tr.begin("core.close", run, parent)
	sim.Close()
	tr.end(sp)
	return res, st, nil
}

// multicoreTraced runs one multi-core config with the calls
// multicore.Run makes: New, the solo profiling pass when the allocator
// needs it, allocation, then the barriered per-quantum run.
func multicoreTraced(tr *tracer, run string, parent int, cfg core.Config) (core.Result, error) {
	sp := tr.begin("multicore.new", run, parent)
	sys, err := multicore.New(cfg)
	if err != nil {
		tr.end(sp)
		return core.Result{}, err
	}
	alloc, err := multicore.NewAllocator(cfg.Allocation)
	tr.end(sp)
	if err != nil {
		return core.Result{}, err
	}
	sigs := make([]multicore.Signature, cfg.Threads)
	for i := range sigs {
		sigs[i].Thread = i
	}
	if alloc.NeedsSignatures() {
		sp = tr.begin("multicore.profile", run, parent)
		sigs, err = sys.Profile()
		tr.end(sp)
		if err != nil {
			return core.Result{}, err
		}
	}
	sp = tr.begin("multicore.allocate", run, parent)
	assignment, err := alloc.Allocate(sigs, cfg.Cores, cfg.Seed)
	tr.end(sp)
	if err != nil {
		return core.Result{}, err
	}
	sp = tr.begin("multicore.run", run, parent)
	res, err := sys.RunWithAssignment(assignment)
	tr.end(sp)
	if err != nil {
		return core.Result{}, err
	}
	return res.System, nil
}
