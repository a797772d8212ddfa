package trace

import (
	"fmt"
	"sync"
)

// This file implements the shared trace cache behind CachedPrograms.
// A caller that re-runs the same (mix, threads, seed) workload under
// many policies, thresholds or machine configs sees an identical
// instruction stream every time, because a Program is self-contained
// and machine-independent, so paying the generator (PRNG draws,
// geometric dependency sampling, address synthesis) per run is waste.
// CachedPrograms records the stream's prefix once and hands out
// replay-backed Programs that serve it as plain slice reads; past the
// prefix they fall back to live generation from the recorded
// post-prefix state, so results are bit-identical to never-cached runs
// at any run length. Sweeps do not use it: they synthesise live and
// share fast-forward plus the first quantum through core's prefix
// snapshots. perfbench's replayed-cycle layer does.

// cacheKey identifies one recorded workload.
type cacheKey struct {
	mix     string
	threads int
	seed    uint64
}

// cachedTrace is one workload's recording: per-thread prefixes, the
// frozen generator state after each prefix, and the pristine initial
// state each handed-out Program starts from. All fields are immutable
// after construction and shared by every Program handed out.
type cachedTrace struct {
	base      []*Program
	prefix    [][]replayItem
	end       []*Program
	perThread int
}

var (
	cacheMu    sync.Mutex
	traceCache = map[cacheKey]*cachedTrace{}
)

// maxCachedTraces bounds resident recordings. A sweep touches a handful
// of (mix, seed) points at a time; when the map is full an arbitrary
// entry is dropped — eviction costs one re-recording, never correctness.
const maxCachedTraces = 8

// CachedPrograms returns programs for mix/threads/seed that replay a
// recorded prefix of perThread instructions per context instead of
// re-deriving it, falling back to live generation beyond the prefix.
// The returned Programs are fresh (single-owner, like Mix.Programs) and
// byte-identical in behaviour to Mix.Programs output; only the CPU cost
// of producing the stream changes. Recordings are cached process-wide
// and shared; concurrent callers are safe.
func CachedPrograms(mixName string, threads int, seed uint64, perThread int) ([]*Program, error) {
	if perThread < 1 {
		return nil, fmt.Errorf("trace: CachedPrograms perThread must be >= 1, got %d", perThread)
	}
	key := cacheKey{mix: mixName, threads: threads, seed: seed}

	cacheMu.Lock()
	c, ok := traceCache[key]
	if !ok || c.perThread < perThread {
		mix, found := MixByName(mixName)
		if !found {
			cacheMu.Unlock()
			return nil, fmt.Errorf("trace: unknown mix %q", mixName)
		}
		progs, err := mix.Programs(threads, seed)
		if err != nil {
			cacheMu.Unlock()
			return nil, err
		}
		c = record(progs, perThread)
		if _, present := traceCache[key]; !present && len(traceCache) >= maxCachedTraces {
			for k := range traceCache {
				delete(traceCache, k)
				break
			}
		}
		traceCache[key] = c
	}
	cacheMu.Unlock()

	out := make([]*Program, len(c.base))
	for t := range c.base {
		cp := *c.base[t]
		cp.replay = c.prefix[t]
		cp.replayEnd = c.end[t]
		out[t] = &cp
	}
	return out, nil
}

// record consumes progs, recording perThread instructions from each.
func record(progs []*Program, perThread int) *cachedTrace {
	c := &cachedTrace{
		base:      make([]*Program, len(progs)),
		prefix:    make([][]replayItem, len(progs)),
		end:       make([]*Program, len(progs)),
		perThread: perThread,
	}
	for t, p := range progs {
		c.base[t] = p.Clone()
		items := make([]replayItem, perThread)
		for i := range items {
			in := p.Next()
			items[i] = replayItem{inst: in, phase: uint16(p.phase)}
		}
		c.prefix[t] = items
		c.end[t] = p.Clone()
	}
	return c
}

// FlushTraceCache drops every cached recording (tests and memory-
// sensitive callers).
func FlushTraceCache() {
	cacheMu.Lock()
	traceCache = map[cacheKey]*cachedTrace{}
	cacheMu.Unlock()
}
