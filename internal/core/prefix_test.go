package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dtvm"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/simrun"
	"repro/internal/trace"
)

// sweepConfig is one run of the paper's grid at the given interval, set
// up the way the experiment drivers set it up.
func sweepConfig(mix string, quanta, interval int) core.Config {
	cfg := core.DefaultConfig(mix)
	cfg.Quanta = quanta
	cfg.Seed = 1 + uint64(interval)*0x9e3779b9
	cfg.FastForward = 16384 + int64(interval)*24576
	return cfg
}

// adts turns cfg into an adaptive run.
func adts(cfg core.Config, h detector.Heuristic, m float64) core.Config {
	cfg.Mode = core.ModeADTS
	cfg.Detector.Heuristic = h
	cfg.Detector.IPCThreshold = m
	return cfg
}

// runDigest runs cfg and returns its result digest.
func runDigest(t *testing.T, cfg core.Config) string {
	t.Helper()
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	sim.Close()
	return simrun.ResultDigest(res)
}

// explicitDigest runs cfg on explicitly passed programs, which never
// share a prefix, and returns its result digest.
func explicitDigest(t *testing.T, cfg core.Config) string {
	t.Helper()
	mix, _ := trace.MixByName(cfg.MixName)
	progs, err := mix.Programs(cfg.Threads, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Programs = progs
	if _, ok := cfg.Family(); ok {
		t.Fatal("a config with explicit Programs has a family")
	}
	return runDigest(t, cfg)
}

// TestPrefixSnapshotEquivalence: every run that restores its family's
// snapshot gives the result it gives when it simulates every cycle.
func TestPrefixSnapshotEquivalence(t *testing.T) {
	pipeline.DrainPools()
	defer pipeline.DrainPools()
	kernel, err := dtvm.Assemble(dtvm.Type1Source(2))
	if err != nil {
		t.Fatal(err)
	}
	hits := core.PrefixHits()
	var runs uint64
	for _, quanta := range []int{1, 4} {
		for interval := 0; interval < 2; interval++ {
			base := sweepConfig("kitchen-sink", quanta, interval)
			family := []core.Config{base}
			for _, h := range detector.AllHeuristics() {
				family = append(family, adts(base, h, 2))
			}
			k := adts(base, detector.Type1, 2)
			k.Kernel = kernel
			family = append(family, k)

			for i, cfg := range family {
				if got, want := runDigest(t, cfg), explicitDigest(t, cfg); got != want {
					t.Errorf("quanta %d interval %d config %d (%v %v): digest %s, want %s",
						quanta, interval, i, cfg.Mode, cfg.Detector.Heuristic, got, want)
				}
			}
			runs += uint64(len(family))
		}
	}
	// The run length is not part of a family: one family per interval,
	// and the store holds both, so only their first runs simulate.
	if got, want := core.PrefixHits()-hits, runs-2; got != want {
		t.Fatalf("%d runs restored a snapshot, want %d (all but each interval's first)", got, want)
	}
}

// TestPrefixKeySeparation: configs that differ in anything the prefix
// depends on never restore each other's snapshot, and fixed ICOUNT and
// ADTS (which starts under ICOUNT) do share one.
func TestPrefixKeySeparation(t *testing.T) {
	defer pipeline.DrainPools()
	base := adts(sweepConfig("int-memory", 2, 0), detector.Type3, 2)
	base.FastForward = 4096

	shared := base
	shared.Mode, shared.FixedPolicy = core.ModeFixed, policy.ICOUNT

	variants := map[string]func(*core.Config){
		"fixed policy":     func(c *core.Config) { c.Mode, c.FixedPolicy = core.ModeFixed, policy.BRCOUNT },
		"initial policy":   func(c *core.Config) { c.Detector.InitialPolicy = policy.RR },
		"seed":             func(c *core.Config) { c.Seed++ },
		"fast-forward":     func(c *core.Config) { c.FastForward += 1024 },
		"quantum":          func(c *core.Config) { c.Detector.Quantum = 4096 },
		"threads":          func(c *core.Config) { c.Threads = 4 },
		"machine field":    func(c *core.Config) { c.Machine.DecodeDelay++ },
		"mix":              func(c *core.Config) { c.MixName = "kitchen-sink" },
		"predictor config": func(c *core.Config) { c.Machine.HistoryBits-- },
	}
	for name, mutate := range variants {
		pipeline.DrainPools()
		runDigest(t, base)
		v := base
		mutate(&v)
		hits := core.PrefixHits()
		if got, want := runDigest(t, v), explicitDigest(t, v); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
		if core.PrefixHits() != hits {
			t.Errorf("%s: restored the base config's snapshot", name)
		}
	}

	pipeline.DrainPools()
	runDigest(t, base)
	hits := core.PrefixHits()
	if got, want := runDigest(t, shared), explicitDigest(t, shared); got != want {
		t.Errorf("fixed ICOUNT: digest %s, want %s", got, want)
	}
	if core.PrefixHits() != hits+1 {
		t.Error("fixed ICOUNT did not restore the ADTS run's snapshot")
	}
}

// TestPrefixSnapshotStoreBounded: many families never leave more than
// the store's cap resident, and DrainPools empties it.
func TestPrefixSnapshotStoreBounded(t *testing.T) {
	pipeline.DrainPools()
	defer pipeline.DrainPools()
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := sweepConfig("int-compute", 1, 0)
		cfg.Threads, cfg.FastForward, cfg.Seed = 2, 1024, seed
		runDigest(t, cfg)
		if n := pipeline.SnapshotCount(); n > 2 || n > int(seed) {
			t.Fatalf("after %d families the store holds %d snapshots, cap is 2", seed, n)
		}
	}
	if n := pipeline.SnapshotCount(); n != 2 {
		t.Fatalf("store holds %d snapshots after churn, want the cap 2", n)
	}
	pipeline.DrainPools()
	if n := pipeline.SnapshotCount(); n != 0 {
		t.Fatalf("DrainPools left %d snapshots", n)
	}
}

// TestPrefixSnapshotConcurrent runs one family from many goroutines at
// once (run it with -race): whichever run stores the snapshot, every
// result matches its fully simulated one.
func TestPrefixSnapshotConcurrent(t *testing.T) {
	pipeline.DrainPools()
	defer pipeline.DrainPools()
	base := sweepConfig("mixed-lowipc", 2, 1)
	base.FastForward = 4096
	var cfgs []core.Config
	for _, h := range detector.AllHeuristics() {
		for _, m := range []float64{1, 3} {
			cfgs = append(cfgs, adts(base, h, m))
		}
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = explicitDigest(t, cfg)
	}
	got := make([]string, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim, err := core.NewSimulator(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			res := sim.Run()
			sim.Close()
			got[i] = simrun.ResultDigest(res)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("config %d (%v m%g): digest %s, want %s", i, cfgs[i].Detector.Heuristic, cfgs[i].Detector.IPCThreshold, got[i], want[i])
		}
	}
}
