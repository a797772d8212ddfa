package fleet

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// backend is one smtsimd instance in the pool: its base URL plus the
// client-side state the dispatcher needs — in-flight load for
// least-loaded selection, a circuit breaker, health-probe status, and
// per-backend counters for the metrics exposition.
type backend struct {
	url     string // normalized base URL, no trailing slash
	breaker *breaker

	inflight atomic.Int64 // requests being served now (load metric)
	requests atomic.Int64 // dispatches, including hedges and retries
	errors   atomic.Int64 // failed dispatches (transport, 5xx, timeout)
	ratelim  atomic.Int64 // 429 responses

	digestBad   atomic.Int64 // responses whose digest failed verification
	quarantined atomic.Bool  // byzantine: permanently removed from the pool

	latSumUs atomic.Int64 // microseconds of successful requests
	latCount atomic.Int64

	probeMu sync.Mutex
	down    bool   // last health probe failed (distinct from the breaker)
	version string // backend-reported version from /healthz
	store   string // backend-reported store_state ("" = not reported)
}

// NormalizeURLs turns smtsimd addresses ("host:port" or full URLs)
// into base URLs without a trailing slash, dropping duplicates and
// keeping first-seen order. An empty address is an error. The client's
// backend pool, the peer lookup and smtsimd -peers all parse through it.
func NormalizeURLs(addrs []string) ([]string, error) {
	urls := make([]string, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, raw := range addrs {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("fleet: empty backend address")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if !seen[u] {
			seen[u] = true
			urls = append(urls, u)
		}
	}
	return urls, nil
}

// observe records one successful request's latency.
func (b *backend) observe(us int64) {
	b.latSumUs.Add(us)
	b.latCount.Add(1)
}

// setProbe records a health-probe outcome.
func (b *backend) setProbe(up bool, version string) {
	b.probeMu.Lock()
	b.down = !up
	if version != "" {
		b.version = version
	}
	b.probeMu.Unlock()
}

// probed returns the last probe outcome and reported version.
func (b *backend) probed() (up bool, version string) {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	return !b.down, b.version
}

// setStoreState records the store serving state the last probe saw.
func (b *backend) setStoreState(state string) {
	b.probeMu.Lock()
	b.store = state
	b.probeMu.Unlock()
}

// storeState returns the backend's last-reported store serving state.
func (b *backend) storeState() string {
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	return b.store
}

// storePenalty converts a degraded store into extra apparent load for
// least-loaded selection: a readonly store (recomputes everything it
// can't cache) counts as one extra in-flight request, a memory-only
// store (loses its results on restart too) as two. Degraded backends
// still serve — the penalty biases dispatch, it never excludes — so a
// fleet that is entirely degraded keeps working.
func (b *backend) storePenalty() int64 {
	switch b.storeState() {
	case "readonly":
		return 1
	case "memory-only":
		return 2
	default:
		return 0
	}
}

// available reports whether the dispatcher may route to this backend:
// not marked down by the prober, and the breaker admits a request.
// Calling this consumes the half-open trial slot when one is available,
// so callers must follow through with a request (or report failure).
func (b *backend) available() bool {
	if up, _ := b.probed(); !up {
		return false
	}
	return b.breaker.allow()
}
