package resultstore

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Counter slots of the per-tier traffic counters, in tiers order.
const (
	slotMemory = iota
	slotDisk
	slotPeer
)

// tiers lists the tier names in slot order: the values of the tier
// label.
var tiers = []string{TierMemory, TierDisk, TierPeer}

// Metrics counts per-tier traffic through a Tiered store. Hits and
// misses count tier consultations (one Get can miss several tiers
// before hitting one); putErrors counts failed persists.
type Metrics struct {
	hits, misses, putErrors [3]atomic.Int64
}

// Hits reports consultations of the named tier that returned a
// verified entry.
func (m *Metrics) Hits(tier string) int64 {
	for i, name := range tiers {
		if name == tier {
			return m.hits[i].Load()
		}
	}
	return 0
}

// RegisterMetrics declares the store's families on r: the memory
// tier's, the per-tier traffic counters, the disk tier's, and the
// serving state.
func (t *Tiered) RegisterMetrics(r *obs.Registry) {
	if t.mem != nil {
		t.mem.registerMetrics(r)
	}
	m := &t.metrics
	r.CounterVec("smtsimd_store_hits_total", "Store lookups served, by tier.", "tier", tiers,
		func(i int) int64 { return m.hits[i].Load() })
	r.CounterVec("smtsimd_store_misses_total", "Store lookups missed, by tier.", "tier", tiers,
		func(i int) int64 { return m.misses[i].Load() })
	r.CounterVec("smtsimd_store_put_errors_total", "Store writes that failed, by tier.", "tier", tiers,
		func(i int) int64 { return m.putErrors[i].Load() })
	if t.disk != nil {
		t.disk.registerMetrics(r)
	}
	// The alert-friendly twin of /healthz store_state.
	r.Gauge("smtsimd_store_state", "Store serving state: 0 ok, 1 readonly, 2 memory-only.", func() int64 {
		switch t.State() {
		case StateOK:
			return 0
		case StateReadOnly:
			return 1
		default:
			return 2
		}
	})
}
