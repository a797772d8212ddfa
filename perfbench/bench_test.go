package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestSummarizeTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must not assume order
		}
		return xs
	}
	cases := []struct {
		n           int
		p50, tailP  float64
		tail        float64
		description string
	}{
		{n: 10, p50: 5, tailP: 0, tail: 0, description: "too few samples for any tail"},
		{n: 20, p50: 10, tailP: 50, tail: 10, description: "median is the highest supported"},
		{n: 100, p50: 50, tailP: 90, tail: 90, description: "p95 has only 5 samples beyond"},
		{n: 199, p50: 100, tailP: 90, tail: 180, description: "p95 rank 190 leaves 9 beyond"},
		{n: 200, p50: 100, tailP: 95, tail: 190, description: "p95 rank 190 leaves 10 beyond"},
		{n: 1000, p50: 500, tailP: 99, tail: 990, description: "p99 rank 990 leaves 10 beyond"},
	}
	for _, c := range cases {
		xs := seq(c.n)
		d := summarize(xs)
		if d.N != c.n || d.P50 != c.p50 || d.TailP != c.tailP || d.Tail != c.tail {
			t.Errorf("%s: summarize(1..%d) = %+v, want N=%d p50=%g p%g=%g", c.description, c.n, d, c.n, c.p50, c.tailP, c.tail)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("summarize reordered its input")
		}
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("summarize(nil) = %+v, want zero", d)
	}
	if got := percentile([]float64{3, 1, 2}, 90); got != 3 {
		t.Errorf("percentile p90 of {3,1,2} = %g, want 3", got)
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var tl tally
	if got := tl.frac(); got != 1 {
		t.Errorf("frac with nothing attempted = %g, want 1", got)
	}
	tl.add(10, 0)
	tl.add(5, 2)
	if a, f := tl.counts(); a != 15 || f != 2 {
		t.Errorf("counts = %d/%d, want 2/15", f, a)
	}
	if got, want := tl.frac(), 2.0/15; got != want {
		t.Errorf("frac = %g, want %g", got, want)
	}
	tl.failAll()
	tl.add(5, 0)
	if a, f := tl.counts(); a != 20 || f != 20 {
		t.Errorf("after failAll counts = %d/%d, want 20/20", f, a)
	}
	if got := tl.frac(); got != 1 {
		t.Errorf("after failAll frac = %g, want 1", got)
	}
}

func TestGenServeDeterministic(t *testing.T) {
	a, err := genServe(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genServe(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genServe(2)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInputs(a, b) {
		t.Error("seed 1 generated different inputs on two calls")
	}
	if sameInputs(a, c) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}

	if len(a.cfgs) != serveKeys || len(a.warm) != serveWarm {
		t.Fatalf("generated %d configs and %d warm requests, want %d and %d", len(a.cfgs), len(a.warm), serveKeys, serveWarm)
	}
	seen := map[string]bool{}
	for _, k := range a.keys {
		if seen[k] {
			t.Errorf("key %s generated twice", k)
		}
		seen[k] = true
	}
	next := 0
	for _, ch := range a.chunks {
		if ch.start != next || ch.n < 1 || ch.n > batchChunk {
			t.Errorf("chunk %+v does not continue at %d with 1..%d items", ch, next, batchChunk)
		}
		next += ch.n
	}
	if next != serveKeys {
		t.Errorf("chunks cover %d configs, want %d", next, serveKeys)
	}
}

func sameInputs(a, b *serveInputs) bool {
	if len(a.bodies) != len(b.bodies) || len(a.warm) != len(b.warm) || len(a.chunks) != len(b.chunks) {
		return false
	}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			return false
		}
	}
	for i := range a.warm {
		if a.warm[i] != b.warm[i] {
			return false
		}
	}
	for i := range a.chunks {
		if !bytes.Equal(a.chunks[i].body, b.chunks[i].body) {
			return false
		}
	}
	return true
}

func TestWindowRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := time.Millisecond
	job := func(from, dur time.Duration, cycles int64) jobRecord {
		return jobRecord{start: t0.Add(from), dur: dur, cycles: cycles}
	}
	r := &simRound{start: t0, wall: 2500 * ms, rec: &recorder{jobs: []jobRecord{
		job(0, 500*ms, 1e6),                    // all in window 0
		job(500*ms, 1000*ms, 2e6),              // half in window 0, half in window 1
		job(1500*ms, 1000*ms, 4e6),             // half in window 1, half in the dropped tail
		{start: t0, dur: 0, err: os.ErrClosed}, // failed jobs count nothing
	}}}
	mcps, jobs := r.windowRates()
	wantM, wantJ := []float64{2, 3}, []float64{1.5, 1}
	if len(mcps) != 2 || len(jobs) != 2 {
		t.Fatalf("got %d and %d windows, want 2 whole windows", len(mcps), len(jobs))
	}
	for k := range wantM {
		if math.Abs(mcps[k]-wantM[k]) > 1e-9 || math.Abs(jobs[k]-wantJ[k]) > 1e-9 {
			t.Errorf("window %d: %.3f Mcycles/s, %.3f jobs/s; want %.3f, %.3f", k, mcps[k], jobs[k], wantM[k], wantJ[k])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "runner.job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.new_simulator", Start: 0, End: 30},
		{ID: 2, Parent: 1, Name: "trace.programs", Start: 5, End: 25},
		{ID: 3, Parent: 0, Name: "pipeline.quantum", Start: 30, End: 90},
	}
	want := []int64{10, 10, 20, 60}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["pipeline"] != 60e-9 || layers["core"] != 10e-9 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		json []def
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.kind, len(c.json), len(c.code))
			continue
		}
		for i := range c.json {
			if c.json[i].Name != c.code[i].name || c.json[i].Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					c.kind, i, c.json[i].Name, c.json[i].Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
