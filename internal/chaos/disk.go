package chaos

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"syscall"
)

// DiskFull simulates a filesystem running out of space: a shared byte
// budget across every writer it wraps, decremented on each write. Once
// the budget is exhausted, writes fail with an error that unwraps to
// syscall.ENOSPC — exactly what the resultstore disk tier classifies as
// a write fault — so a store wired through Wrap degrades to readonly
// the way it would on a real full disk. Refill models the operator (or
// log rotation) freeing space, after which the tier's recovery probe
// succeeds.
//
// It plugs into resultstore.DiskOptions.WrapWriter:
//
//	full := chaos.NewDiskFull(64 << 10)
//	OpenDisk(dir, DiskOptions{WrapWriter: full.Wrap})
type DiskFull struct {
	budget atomic.Int64
	stats  counters
}

// NewDiskFull builds a disk-full injector with capacity bytes of
// remaining space.
func NewDiskFull(capacity int64) *DiskFull {
	d := &DiskFull{}
	d.budget.Store(capacity)
	return d
}

// Refill resets the remaining space to capacity ("the operator cleaned
// up the disk").
func (d *DiskFull) Refill(capacity int64) { d.budget.Store(capacity) }

// Fired reports how many writes have failed with the injected ENOSPC.
func (d *DiskFull) Fired() int64 { return d.stats.get(FaultDiskFull) }

// Wrap returns w metered against the shared budget. The signature
// matches resultstore.DiskOptions.WrapWriter.
func (d *DiskFull) Wrap(w io.WriteCloser) io.WriteCloser {
	return &fullWriter{inner: w, disk: d}
}

type fullWriter struct {
	inner io.WriteCloser
	disk  *DiskFull
}

func (w *fullWriter) Write(p []byte) (int, error) {
	need := int64(len(p))
	for {
		cur := w.disk.budget.Load()
		if cur < need {
			// Like a real ENOSPC: whatever fits lands, the rest fails.
			if !w.disk.budget.CompareAndSwap(cur, 0) {
				continue
			}
			w.disk.stats.add(FaultDiskFull)
			n := 0
			if cur > 0 {
				n, _ = w.inner.Write(p[:cur])
			}
			return n, fmt.Errorf("chaos: disk full: %w", syscall.ENOSPC)
		}
		if w.disk.budget.CompareAndSwap(cur, cur-need) {
			break
		}
	}
	return w.inner.Write(p)
}

// Sync forwards to the underlying writer's Sync when it has one.
func (w *fullWriter) Sync() error {
	if s, ok := w.inner.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

func (w *fullWriter) Close() error { return w.inner.Close() }

// RotFile simulates media bit rot: it flips exactly one bit of the file
// at path, chosen deterministically from seed, and returns which
// (offset, bit) rotted. Any single-bit flip in a resultstore entry file
// is detectable — it either breaks the record's JSON structure or lands
// inside checksummed bytes — so a rotted store heals instead of serving
// the flip.
func RotFile(path string, seed uint64) (offset int64, bit uint, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(raw) == 0 {
		return 0, 0, fmt.Errorf("chaos: cannot rot empty file %s", path)
	}
	rng := eventRand(seed, 0)
	i := rng.IntN(len(raw))
	b := uint(rng.IntN(8))
	raw[i] ^= 1 << b
	info, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	if err := os.WriteFile(path, raw, info.Mode().Perm()); err != nil {
		return 0, 0, err
	}
	rotStats.add(FaultRot)
	return int64(i), b, nil
}

// rotStats counts RotFile flips package-wide (RotFile has no receiver
// to hang per-injector counters on).
var rotStats counters

// RotsFired reports how many bits RotFile has flipped.
func RotsFired() int64 { return rotStats.get(FaultRot) }
