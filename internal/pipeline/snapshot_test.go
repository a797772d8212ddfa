package pipeline

import (
	"testing"
	"unsafe"

	"repro/internal/counters"
)

// TestDoneRingCoversDependencyWindow pins the bound the done ring's
// staleness argument needs: a producer's slot is reused only doneRing
// instructions later, which must lie beyond both the dependency window
// and the consumer's own stay in the ROB.
func TestDoneRingCoversDependencyWindow(t *testing.T) {
	m := testMachine(t, "kitchen-sink", 1, nil)
	robPhys := len(m.threads[0].rob)
	if doneRing <= maxDepWindow+robPhys {
		t.Fatalf("doneRing %d <= maxDepWindow %d + ROB ring %d", doneRing, maxDepWindow, robPhys)
	}
	if 1<<doneRingShift != doneRing {
		t.Fatalf("doneRingShift %d does not match doneRing %d", doneRingShift, doneRing)
	}
	cfg := DefaultConfig()
	cfg.ROBPerThr = doneRing - maxDepWindow
	if cfg.Validate() == nil {
		t.Fatalf("ROBPerThr %d accepted: the done ring cannot cover it", cfg.ROBPerThr)
	}
	cfg.ROBPerThr--
	if err := cfg.Validate(); err != nil {
		t.Fatalf("largest covered ROBPerThr rejected: %v", err)
	}
	if n := unsafe.Sizeof(event{}); n != 16 {
		t.Fatalf("event is %d bytes, want 16", n)
	}
}

// TestSnapshotStoreEvictsLeastRecentlyUsed: with the store full, saving
// a new key overwrites the snapshot restored least recently, and a
// restore hands back exactly the saved machine and baseline.
func TestSnapshotStoreEvictsLeastRecentlyUsed(t *testing.T) {
	DrainPools()
	defer DrainPools()
	type key struct{ n int }
	m := testMachine(t, "int-memory", 2, nil)
	base := []counters.Counters{{Committed: 1}, {Committed: 2}}
	for n := 0; n < maxSnapshots; n++ {
		m.Run(100)
		SaveSnapshot(key{n}, m, base)
	}
	dst := m.Clone()
	got := make([]counters.Counters, 2)
	if !RestoreSnapshot(key{0}, dst, got) { // key 1 is now least recent
		t.Fatal("key 0 not stored")
	}
	if dst.Now() != 100 || got[1].Committed != 2 {
		t.Fatalf("restored cycle %d, baseline %v; want cycle 100, the saved baseline", dst.Now(), got)
	}
	m.Run(100)
	SaveSnapshot(key{maxSnapshots}, m, base)
	if RestoreSnapshot(key{1}, dst, got) {
		t.Fatal("least recently used snapshot survived eviction")
	}
	if !RestoreSnapshot(key{0}, dst, got) || !RestoreSnapshot(key{maxSnapshots}, dst, got) {
		t.Fatal("recently used snapshot evicted")
	}
	if n := SnapshotCount(); n != maxSnapshots {
		t.Fatalf("store holds %d snapshots, want %d", n, maxSnapshots)
	}
	// A geometry the evicted slot cannot hold gets a fresh shell.
	other := testMachine(t, "int-memory", 4, nil)
	SaveSnapshot(key{-1}, other, make([]counters.Counters, 4))
	other.Run(50)
	dst4 := other.Clone()
	if !RestoreSnapshot(key{-1}, dst4, make([]counters.Counters, 4)) || dst4.Now() != 0 {
		t.Fatal("snapshot of a second geometry not restored as saved")
	}
}

// TestSnapshotStoreAllocationFree: restoring copies into the
// destination's storage, and saving over an evicted snapshot of the
// same geometry reuses its machine.
func TestSnapshotStoreAllocationFree(t *testing.T) {
	DrainPools()
	defer DrainPools()
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(16384)
	base := make([]counters.Counters, 8)
	for k := 0; k < maxSnapshots; k++ {
		SaveSnapshot(k, m, base)
	}
	dst := m.Clone()
	if n := testing.AllocsPerRun(16, func() { RestoreSnapshot(0, dst, base) }); n != 0 {
		t.Fatalf("RestoreSnapshot allocated %.1f times per run, want 0", n)
	}
	k := maxSnapshots
	if n := testing.AllocsPerRun(16, func() { k++; SaveSnapshot(k, m, base) }); n != 0 {
		t.Fatalf("SaveSnapshot over an evicted slot allocated %.1f times per run, want 0", n)
	}
}
