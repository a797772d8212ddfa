package pipeline

import (
	"sync"

	"repro/internal/counters"
)

// Prefix snapshots let runs that share a warm-up simulate it once. A
// policy sweep runs many configurations over one workload interval, and
// every one of them simulates the same cycles until something outside
// the machine first acts on it; the first run stores the machine at
// that point and the others copy it (CloneInto) instead of re-running
// it. The caller's key names everything the stored state depends on.
//
// The store holds at most maxSnapshots machines: one per family in
// flight covers a driver that hands runs over family by family. The
// least recently used snapshot is overwritten in place, so a steady
// stream of families of one geometry reuses the same two machines.
const maxSnapshots = 2

type snapshot struct {
	key  any // nil: empty slot
	m    *Machine
	base []counters.Counters
	used uint64
}

var (
	snapMu    sync.Mutex
	snaps     [maxSnapshots]snapshot
	snapClock uint64
)

// SaveSnapshot stores a copy of m under key, along with base: the
// caller's per-thread counters at its measurement baseline. key must be
// a comparable value. A key already stored is left as it is; equal keys
// must mean equal states, so the copy would be the same.
func SaveSnapshot(key any, m *Machine, base []counters.Counters) {
	snapMu.Lock()
	defer snapMu.Unlock()
	slot := &snaps[0]
	for i := range snaps {
		s := &snaps[i]
		if s.key == key {
			return
		}
		if s.used < slot.used {
			slot = s
		}
	}
	if slot.m == nil || slot.m.cfg != m.cfg || len(slot.m.threads) != len(m.threads) {
		slot.m = newShell(m.cfg, len(m.threads))
		// A snapshot never runs, so it needs no event arena: CloneInto's
		// appends size each bucket to the events actually pending.
		for i := range slot.m.events {
			slot.m.events[i] = nil
		}
	}
	m.CloneInto(slot.m)
	slot.base = append(slot.base[:0], base...)
	slot.key = key
	snapClock++
	slot.used = snapClock
}

// RestoreSnapshot overwrites dst with the machine stored under key and
// base with its baseline counters, and reports whether key was stored.
// dst must have the stored machine's geometry, which equal keys imply.
func RestoreSnapshot(key any, dst *Machine, base []counters.Counters) bool {
	snapMu.Lock()
	defer snapMu.Unlock()
	for i := range snaps {
		s := &snaps[i]
		if s.key != nil && s.key == key {
			s.m.CloneInto(dst)
			copy(base, s.base)
			snapClock++
			s.used = snapClock
			return true
		}
	}
	return false
}

// SnapshotCount returns the number of stored snapshots (at most
// maxSnapshots; exposed for tests).
func SnapshotCount() int {
	snapMu.Lock()
	defer snapMu.Unlock()
	n := 0
	for i := range snaps {
		if snaps[i].key != nil {
			n++
		}
	}
	return n
}

// dropSnapshots empties the store, releasing its machines.
func dropSnapshots() {
	snapMu.Lock()
	snaps = [maxSnapshots]snapshot{}
	snapMu.Unlock()
}
