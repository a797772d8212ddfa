package main

import (
	"fmt"

	"repro/internal/core"
)

// pipelineLayers fills the trace, pipeline, core and detector metrics
// from a traced run's spans and machine counts, then runs the detector
// replay and the record/replay passes. cfgByRun maps a span's run ID to
// its config.
func pipelineLayers(out *outcome, spans []span, cfgByRun map[string]core.Config, m machineWork, streams []detStream, cfgs []core.Config, seed uint64) {
	var ffNsPerCycle []float64
	var simNs float64
	for _, s := range spans {
		switch s.Name {
		case "pipeline.fastforward":
			if cfg, ok := cfgByRun[s.Run]; ok && cfg.FastForward > 0 {
				ffNsPerCycle = append(ffNsPerCycle, float64(s.dur())/float64(cfg.FastForward))
			}
			simNs += float64(s.dur())
		case "pipeline.quantum":
			simNs += float64(s.dur())
		}
	}
	fmt.Printf("machine counts (traced, fast-forward included): %+v\n", m)
	out.layer["pipeline.fastforward_ns_per_cycle"] = median(ffNsPerCycle)
	if m.Committed > 0 {
		out.layer["pipeline.ns_per_commit"] = simNs / float64(m.Committed)
		out.layer["trace.insts_per_commit"] = float64(m.Synthesized) / float64(m.Committed)
	}
	if m.Fetched > 0 {
		out.layer["pipeline.wrong_path_frac"] = float64(m.WrongPath) / float64(m.Fetched)
	}
	out.layer["pipeline.cycles"] = float64(m.Cycles)
	out.layer["pipeline.committed"] = float64(m.Committed)
	out.layer["pipeline.fetched"] = float64(m.Fetched)
	out.layer["trace.synthesized"] = float64(m.Synthesized)
	out.layer["core.new_simulator_us"] = median(durationsUS(spans, "core.new_simulator", ""))
	out.layer["core.finish_us"] = median(durationsUS(spans, "core.finish", ""))
	out.layer["core.close_us"] = median(durationsUS(spans, "core.close", ""))

	nsPerDecision, switches, err := detectorReplay(streams)
	if err != nil {
		out.fail("%v", err)
	}
	out.layer["detector.ns_per_decision"] = nsPerDecision
	out.layer["detector.switches"] = float64(switches)

	rr, err := recordReplay(cfgs, seed)
	if err != nil {
		out.fail("record/replay pass: %v", err)
	}
	out.layer["trace.synth_ns_per_inst"] = rr.synthNsPerInst
	out.layer["pipeline.live_ns_per_cycle"] = rr.liveNsPerCycle
	out.layer["pipeline.replay_ns_per_cycle"] = rr.replayNsPerCycle
}
