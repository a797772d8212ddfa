package simserver

import (
	"strings"
	"testing"
	"time"
)

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	f1, lead1 := g.join("k")
	if !lead1 {
		t.Fatal("first join should lead")
	}
	f2, lead2 := g.join("k")
	if lead2 || f1 != f2 {
		t.Fatal("second join should coalesce onto the open flight")
	}
	g.finish("k", f1, &runResponse{Key: "k"}, nil)
	<-f2.done
	if f2.val == nil || f2.val.Key != "k" {
		t.Fatal("follower did not observe the leader's result")
	}
	// After finish, the key starts a fresh flight.
	_, lead3 := g.join("k")
	if !lead3 {
		t.Fatal("join after finish should start a new flight")
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	s := New(Config{})
	m := &s.metrics
	m.requests.Add(3)
	m.cacheHits.Add(2)
	m.observeRun(4*time.Millisecond, 16_000)  // first bucket, 250 ns/cycle
	m.observeRun(99*time.Second, 792_000_000) // +Inf bucket, 125 ns/cycle
	m.observeRun(time.Millisecond, 0)         // guarded: no cycles, no throughput observation
	m.batchLatency.Observe(0.2)               // lands in le="0.25"
	var b strings.Builder
	s.Registry().Write(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE smtsimd_requests_total counter",
		"smtsimd_requests_total 3",
		"smtsimd_cache_hits_total 2",
		"# TYPE smtsimd_run_seconds histogram",
		`smtsimd_run_seconds_bucket{le="0.005"} 2`,
		`smtsimd_run_seconds_bucket{le="+Inf"} 3`,
		"smtsimd_run_seconds_count 3",
		"# TYPE smtsimd_batch_seconds histogram",
		`smtsimd_batch_seconds_bucket{le="0.25"} 1`,
		"smtsimd_batch_seconds_count 1",
		"# TYPE smtsimd_sim_cycles_total counter",
		"smtsimd_sim_cycles_total 792016000",
		"# TYPE smtsimd_sim_ns_per_cycle summary",
		"smtsimd_sim_ns_per_cycle_sum 375",
		"smtsimd_sim_ns_per_cycle_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
