// Package pipeline implements the SMT processor core: a trace-driven,
// cycle-level model of an 8-wide out-of-order simultaneous-multithreading
// pipeline in the style of Tullsen et al.'s ICOUNT machine, which the
// paper's SimpleSMT simulator is configured to match.
//
// The model covers what the paper's mechanisms observe and steer:
//
//   - ICOUNT.2.8 fetch: up to 8 instructions from up to 2 threads per
//     cycle, stopping at the cache-block boundary, ordered by the active
//     fetch policy;
//   - a shared fetch buffer, shared INT/FP instruction queues, shared
//     rename-register pools and a shared load/store queue (the resources
//     whose imbalance ADTS detects);
//   - per-thread reorder buffers with in-order commit;
//   - branch prediction with wrong-path fetch: mispredicted paths inject
//     synthetic wrong-path instructions that consume fetch slots, queue
//     entries, registers and cache bandwidth until the branch resolves;
//   - an L1I/L1D/L2/DRAM hierarchy with per-thread accounting;
//   - conservative syscall semantics (all threads flush, paper §6);
//   - a detector-thread context that consumes only leftover fetch and
//     issue slots and delays policy switches until its job completes.
package pipeline

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/policy"
)

// Config fixes the machine geometry. DefaultConfig matches the resources
// the paper configures SimpleSMT with (themselves matching Tullsen et
// al. for verification).
type Config struct {
	FetchWidth   int // instructions fetched per cycle (8)
	FetchThreads int // threads fetched per cycle (2 => ICOUNT.2.8)
	FetchBlock   int // fetch stops at this instruction-block boundary (8)
	DecodeWidth  int // instructions renamed/dispatched per cycle
	DecodeDelay  int // cycles between fetch and earliest dispatch (front-end depth)
	IssueWidth   int // instructions issued per cycle
	CommitWidth  int // instructions committed per cycle (all threads)

	IFQSize          int // shared fetch-buffer capacity
	IntIQSize        int // integer instruction-queue capacity
	FPIQSize         int // floating-point instruction-queue capacity
	ROBPerThr        int // reorder-buffer entries per thread
	LSQSize          int // shared load/store-queue capacity
	MSHRs            int // outstanding L1D load misses allowed machine-wide; 0 = unlimited
	IntRegs          int // shared integer rename-register pool
	FPRegs           int // shared FP rename-register pool
	FUs              [isa.NumFU]int
	ICacheBlockWords int // I-cache block size in instruction words

	SyscallPenalty int // fetch-stall cycles charged to a syscalling thread

	// Detector-thread work model (paper §3-4): the DT runs only in
	// leftover fetch/issue slots; these are the instruction budgets of
	// its jobs.
	DTIdleWork   int // per-quantum monitoring work
	DTDecideWork int // extra work when a new policy must be determined
	DTClogWork   int // extra work to identify clogging threads

	InitialPolicy policy.Policy

	Hierarchy cache.HierarchyConfig

	// Predictor selection and geometry. PredictorKind chooses the
	// direction predictor (hybrid, bimodal, gshare, local, taken);
	// hybrid uses all three table sizes, the others derive from
	// GShareEntries.
	PredictorKind  branch.Kind
	BimodalEntries int
	GShareEntries  int
	MetaEntries    int
	HistoryBits    uint
	BTBSets        int
	BTBWays        int

	// WrongPath enables wrong-path injection after mispredicts
	// (ablation switch; see DESIGN.md §5).
	WrongPath bool
}

// DefaultConfig returns the paper-matched machine.
func DefaultConfig() Config {
	return Config{
		FetchWidth:   8,
		FetchThreads: 2,
		FetchBlock:   8,
		DecodeWidth:  8,
		DecodeDelay:  4,
		IssueWidth:   8,
		CommitWidth:  8,

		IFQSize:   32,
		IntIQSize: 32,
		FPIQSize:  32,
		ROBPerThr: 48,
		LSQSize:   48, // 6 per context, near the SimpleScalar per-core default
		MSHRs:     0,  // unlimited by default; set for bandwidth studies

		IntRegs: 64,
		FPRegs:  64,
		FUs: [isa.NumFU]int{
			isa.FUIntALU:    6,
			isa.FUIntMulDiv: 2,
			isa.FUFPAdd:     4,
			isa.FUFPMulDiv:  2,
			isa.FUMemPort:   4,
		},
		ICacheBlockWords: 16, // 64-byte blocks, 4-byte instructions

		SyscallPenalty: 100,

		DTIdleWork:   256,
		DTDecideWork: 1024,
		DTClogWork:   512,

		InitialPolicy: policy.ICOUNT,

		Hierarchy: cache.DefaultHierarchyConfig(),

		PredictorKind:  branch.KindHybrid,
		BimodalEntries: 4096,
		GShareEntries:  8192,
		MetaEntries:    4096,
		HistoryBits:    12,
		BTBSets:        256,
		BTBWays:        4,

		WrongPath: true,
	}
}

// Validate rejects nonsensical geometries.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.FetchThreads <= 0 || c.FetchBlock <= 0:
		return fmt.Errorf("pipeline: fetch geometry must be positive")
	case c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("pipeline: stage widths must be positive")
	case c.DecodeDelay < 0:
		return fmt.Errorf("pipeline: DecodeDelay must be >= 0")
	case c.IFQSize <= 0 || c.IntIQSize <= 0 || c.FPIQSize <= 0:
		return fmt.Errorf("pipeline: queue sizes must be positive")
	case c.ROBPerThr <= 0 || c.LSQSize <= 0:
		return fmt.Errorf("pipeline: ROB and LSQ sizes must be positive")
	case c.ROBPerThr+maxDepWindow >= doneRing:
		return fmt.Errorf("pipeline: ROBPerThr must be < %d (the completion ring's reach)", doneRing-maxDepWindow)
	case c.MSHRs < 0:
		return fmt.Errorf("pipeline: MSHRs must be >= 0 (0 = unlimited)")
	case c.IntRegs <= 0 || c.FPRegs <= 0:
		return fmt.Errorf("pipeline: rename pools must be positive")
	case c.ICacheBlockWords <= 0:
		return fmt.Errorf("pipeline: ICacheBlockWords must be positive")
	case c.SyscallPenalty < 0:
		return fmt.Errorf("pipeline: SyscallPenalty must be >= 0")
	}
	for k, n := range c.FUs {
		if n <= 0 {
			return fmt.Errorf("pipeline: FU count for %v must be positive", isa.FUKind(k))
		}
	}
	return nil
}
