package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestExposition(t *testing.T) {
	r := NewRegistry()
	var c atomic.Int64
	c.Add(4)
	r.Counter("c_total", "A counter.", c.Load)
	r.Gauge("g", "A gauge.", func() int64 { return -2 })
	tiers := []int64{5, 0, 7}
	r.CounterVec("v_total", "A labelled counter.", "tier", []string{"memory", "disk", "peer"}, func(i int) int64 { return tiers[i] })
	r.GaugeVec("up", "A labelled gauge.", "backend", []string{"http://a:1"}, func(int) int64 { return 1 })
	r.MicrosCounterVec("lat_seconds_sum", "Seconds kept in microseconds.", "backend", []string{"http://a:1"}, func(int) int64 { return 1_500_000 })
	h := NewHistogram([]float64{0.5, 1, 2.5})
	for _, v := range []float64{0.25, 0.5, 2, 9} {
		h.Observe(v)
	}
	r.Histogram("h_seconds", "A histogram.", h)
	s := NewHistogram(nil)
	s.Observe(1.25)
	s.Observe(0.5)
	r.Summary("s", "A summary.", s)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 4
# HELP g A gauge.
# TYPE g gauge
g -2
# HELP v_total A labelled counter.
# TYPE v_total counter
v_total{tier="memory"} 5
v_total{tier="disk"} 0
v_total{tier="peer"} 7
# HELP up A labelled gauge.
# TYPE up gauge
up{backend="http://a:1"} 1
# HELP lat_seconds_sum Seconds kept in microseconds.
# TYPE lat_seconds_sum counter
lat_seconds_sum{backend="http://a:1"} 1.5
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{le="0.5"} 2
h_seconds_bucket{le="1"} 2
h_seconds_bucket{le="2.5"} 3
h_seconds_bucket{le="+Inf"} 4
h_seconds_sum 11.75
h_seconds_count 4
# HELP s A summary.
# TYPE s summary
s_sum 1.75
s_count 2
`
	if got := rec.Body.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}

	if got := r.Value("c_total"); got != 4 {
		t.Fatalf("Value(c_total) = %d, want 4", got)
	}
	if got := r.Value("g"); got != -2 {
		t.Fatalf("Value(g) = %d, want -2", got)
	}
	for _, name := range []string{"absent", "v_total", "s"} {
		if got := r.Value(name); got != 0 {
			t.Fatalf("Value(%s) = %d, want 0 (not an unlabelled counter or gauge)", name, got)
		}
	}
}

// TestObserveDoesNotAllocate pins the request-path contract: an
// observation is atomic adds on a handle, nothing more.
func TestObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram([]float64{0.005, 0.01, 1})
	s := NewHistogram(nil)
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(0.3)
		s.Observe(0.3)
	}); n != 0 {
		t.Fatalf("Observe allocates %v times per run, want 0", n)
	}
}

// TestConcurrentObserveAndScrape races writers against scrapes and a
// late registration; run under -race.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	var c atomic.Int64
	h := NewHistogram([]float64{1})
	r.Counter("c_total", "C.", c.Load)
	r.Histogram("h", "H.", h)
	const workers, per = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(0.5)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.Write(&b)
		}
	}()
	r.Gauge("late", "Registered while scraping.", func() int64 { return 1 })
	wg.Wait()
	var b strings.Builder
	r.Write(&b)
	for _, want := range []string{"c_total 4000\n", "h_count 4000\n", "h_bucket{le=\"+Inf\"} 4000\n", "late 1\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("final scrape missing %q:\n%s", want, b.String())
		}
	}
}
