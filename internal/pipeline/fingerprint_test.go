package pipeline

import "testing"

// TestDeterminismFingerprint pins the simulator's determinism
// fingerprint: kitchen-sink×8 under the default configuration, warmed
// for 8192 cycles and then measured for one million. Any change to the
// cycle loop, the workload synthesis or a predictor that moves a single
// committed instruction moves these numbers; an optimization must keep
// them exact.
func TestDeterminismFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("one-million-cycle run")
	}
	m := testMachine(t, "kitchen-sink", 8, nil)
	m.Run(8192)
	m.Run(1_000_000)
	if got, want := m.AggregateIPC(), 1.590801156922491; got != want {
		t.Errorf("AggregateIPC = %v, want %v", got, want)
	}
	if got, want := m.TotalCommitted(), uint64(1603833); got != want {
		t.Errorf("TotalCommitted = %d, want %d", got, want)
	}
}
