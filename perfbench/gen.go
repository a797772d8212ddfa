package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/policy"
	"repro/internal/simrun"
	"repro/internal/trace"
)

// Shape of the serve workload's inputs.
const (
	serveKeys        = 200  // distinct configs, each simulated once per round
	serveWarm        = 4000 // warm /v1/runcfg requests per round
	batchChunk       = 64   // items per POST /v1/batch, the fleet default
	serveFastForward = 2048
)

// fixedPolicies are the fixed-mode policies the generator draws from.
var fixedPolicies = []policy.Policy{policy.ICOUNT, policy.BRCOUNT, policy.L1MISSCOUNT, policy.MEMCOUNT}

// serveInputs is everything the serve workload sends, generated from
// the seed alone.
type serveInputs struct {
	cfgs   []core.Config
	keys   []string // store key the server files each config under
	bodies [][]byte // POST /v1/runcfg bodies, one per config
	warm   []int    // config index of each warm request
	chunks []chunk  // POST /v1/batch bodies covering every config once
}

// chunk is one batch request: configs [start, start+n).
type chunk struct {
	start, n int
	body     []byte
}

// genServe draws the serve workload's inputs from seed: serveKeys
// distinct configs (distinct workload seeds make distinct keys), then
// serveWarm seeded-uniform warm picks. Each config draws fixed or ADTS
// mode, a fixed policy or a heuristic and m; its mix, thread count (4
// or 8) and quanta (1 or 2) come from a seeded shuffle of a balanced
// list, so every seed simulates the same amount of each kind of work
// and seeds differ in their inputs, not in their cost.
func genServe(seed uint64) (*serveInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x73657276))
	mixes := trace.Mixes()
	heur := detector.AllHeuristics()
	shape := make([]int, serveKeys)
	for i := range shape {
		shape[i] = i
	}
	rng.Shuffle(len(shape), func(i, j int) { shape[i], shape[j] = shape[j], shape[i] })
	in := &serveInputs{}
	for i := 0; i < serveKeys; i++ {
		k := shape[i]
		threads := 4 + 4*(k%2)
		cfg := core.DefaultConfig(mixes[(k/2)%len(mixes)].Name)
		cfg.Threads = threads
		cfg.Detector = detector.DefaultConfig(threads)
		cfg.Seed = seed<<20 | uint64(i+1)
		cfg.FastForward = serveFastForward
		cfg.Quanta = 1 + (k/(2*len(mixes)))%2
		if rng.IntN(2) == 0 {
			cfg.Mode = core.ModeFixed
			cfg.FixedPolicy = fixedPolicies[rng.IntN(len(fixedPolicies))]
		} else {
			cfg.Mode = core.ModeADTS
			cfg.Detector.Heuristic = heur[rng.IntN(len(heur))]
			cfg.Detector.IPCThreshold = float64(1 + rng.IntN(5))
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("generated config %d: %w", i, err)
		}
		body, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		in.cfgs = append(in.cfgs, cfg)
		in.keys = append(in.keys, "cfg:"+simrun.Key(cfg))
		in.bodies = append(in.bodies, body)
	}
	in.warm = make([]int, serveWarm)
	for i := range in.warm {
		in.warm[i] = rng.IntN(serveKeys)
	}
	for start := 0; start < serveKeys; start += batchChunk {
		n := min(batchChunk, serveKeys-start)
		body, err := json.Marshal(struct {
			Configs []core.Config `json:"configs"`
		}{in.cfgs[start : start+n]})
		if err != nil {
			return nil, err
		}
		in.chunks = append(in.chunks, chunk{start: start, n: n, body: body})
	}
	return in, nil
}
