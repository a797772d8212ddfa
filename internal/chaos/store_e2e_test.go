//go:build chaos

package chaos_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/simserver"
)

// corruptDigests is a middleware that bit-flips the first character of
// every "digest" value in the response body — NDJSON batch lines,
// /v1/runcfg replies, and /v1/result entries alike. The payload bytes
// stay intact, so only end-to-end digest verification can catch it.
type corruptDigests struct {
	next http.Handler
}

func (c corruptDigests) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.next.ServeHTTP(&digestFlipWriter{ResponseWriter: w}, r)
}

type digestFlipWriter struct {
	http.ResponseWriter
}

var digestMark = []byte(`"digest":"`)

func (w *digestFlipWriter) Write(p []byte) (int, error) {
	n := len(p)
	if i := bytes.Index(p, digestMark); i >= 0 && i+len(digestMark) < len(p) {
		p = bytes.Clone(p)
		j := i + len(digestMark)
		if p[j] == '0' {
			p[j] = '1'
		} else {
			p[j] = '0'
		}
	}
	if _, err := w.ResponseWriter.Write(p); err != nil {
		return 0, err
	}
	return n, nil
}

func (w *digestFlipWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// batchGate holds each backend's first POST /v1/batch until every one
// of n backends has received one, and turns away (429, Retry-After: 0)
// a further batch that reaches a backend while the gate is shut. The
// fleet client retries a turned-away chunk on another, less loaded
// backend, so the first chunks land one per backend whatever the
// timing and however the random test ports sort.
type batchGate struct {
	mu   sync.Mutex
	n    int
	held map[int]bool
	open chan struct{}
}

func newBatchGate(n int) *batchGate {
	return &batchGate{n: n, held: make(map[int]bool), open: make(chan struct{})}
}

func isBatch(r *http.Request) bool {
	return r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/batch")
}

// wrap gates backend id's batch requests.
func (g *batchGate) wrap(id int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isBatch(r) && !g.pass(id) {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "gate: backend already holds a batch", http.StatusTooManyRequests)
			return
		}
		if isBatch(r) {
			select {
			case <-g.open:
			case <-r.Context().Done():
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// pass admits backend id's batch unless it already holds one behind the
// shut gate; the last backend to arrive opens it.
func (g *batchGate) pass(id int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.open:
		return true
	default:
	}
	if g.held[id] {
		return false
	}
	g.held[id] = true
	if len(g.held) == g.n {
		close(g.open)
	}
	return true
}

// killOnFirstLine is the victim's response writer: once the first
// NDJSON line of a batch stream is out, kill runs.
type killOnFirstLine struct {
	http.ResponseWriter
	kill func()
}

func (k *killOnFirstLine) Write(p []byte) (int, error) {
	n, err := k.ResponseWriter.Write(p)
	k.Flush()
	k.kill()
	return n, err
}

func (k *killOnFirstLine) Flush() {
	if f, ok := k.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestBatchSweepSurvivesKilledAndCorruptBackends is the store/batch
// acceptance test: a batch-dispatched sweep over three backends — one
// killed mid-stream, one serving bit-flipped NDJSON digests — must
// render byte-identical to the fault-free local run. The kill forces a
// chunk retry (truncated stream, no trailer); the corruption forces
// per-line rejection and per-item fallback. A gate steers one of the
// first three batch chunks to each backend, so both faults always fire.
func TestBatchSweepSurvivesKilledAndCorruptBackends(t *testing.T) {
	want := groundTruth(t)
	gate := newBatchGate(3)

	honestSrv := simserver.New(simserver.Config{Workers: 2})
	honest := httptest.NewServer(gate.wrap(0, honestSrv.Handler()))
	t.Cleanup(honest.Close)

	// The victim dies in the middle of its first batch stream: right
	// after the first line, every client connection closes and then the
	// listener does, exactly a SIGKILL's client-visible shape.
	var killOnce sync.Once
	killed := make(chan struct{})
	victimSrv := simserver.New(simserver.Config{Workers: 2})
	var victim *httptest.Server
	victim = httptest.NewUnstartedServer(gate.wrap(1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isBatch(r) {
			w = &killOnFirstLine{ResponseWriter: w, kill: func() {
				killOnce.Do(func() {
					victim.CloseClientConnections()
					victim.Listener.Close()
					close(killed)
				})
			}}
		}
		victimSrv.Handler().ServeHTTP(w, r)
	})))
	victim.Start()
	t.Cleanup(victim.Close)

	liarSrv := simserver.New(simserver.Config{Workers: 2})
	liar := httptest.NewServer(gate.wrap(2, corruptDigests{next: liarSrv.Handler()}))
	t.Cleanup(liar.Close)

	urls := []string{honest.URL, victim.URL, liar.URL}
	peers, err := fleet.NewPeerLookup(urls, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := chaosClient(t, urls, nil, func(cfg *fleet.Config) {
		cfg.HTTPClient = nil // real transport; the faults are the backends
		cfg.BatchSize = 8
		cfg.PeerLookup = peers
	})

	o := chaosOptions()
	o.Workers = 4
	o.Executor = c.BatchExecutor()
	sweep, err := experiments.RunSweep(context.Background(), o, chaosThresholds, chaosHeuristics)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSweep(sweep); got != want {
		t.Fatalf("batch sweep with killed + corrupt backends diverges from local run\nwant:\n%s\ngot:\n%s", want, got)
	}

	var sb strings.Builder
	c.WriteMetrics(&sb)
	m := sb.String()
	for _, needle := range []string{"fleet_batches_total", "fleet_batch_items_total"} {
		if !strings.Contains(m, needle) {
			t.Fatalf("metrics missing %s:\n%s", needle, m)
		}
	}
	if strings.Contains(m, "fleet_digest_mismatch_total 0\n") {
		t.Fatalf("corrupt backend's digests were never rejected — the test exercised nothing:\n%s", m)
	}
	if strings.Contains(m, "fleet_batch_item_fallback_total 0\n") {
		t.Fatalf("no batch item fell back to per-item dispatch — corruption path unexercised:\n%s", m)
	}
	select {
	case <-killed:
	default:
		t.Fatal("the victim never received a batch — kill path unexercised")
	}
}
