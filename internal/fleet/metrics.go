package fleet

import (
	"io"
	"sync/atomic"
)

// clientMetrics are the fleet client's dispatch counters; registerMetrics
// declares their families.
type clientMetrics struct {
	dispatched    atomic.Int64 // requests sent to backends (incl. hedges, retries)
	retried       atomic.Int64 // re-dispatches after a failure
	hedged        atomic.Int64 // hedge requests launched
	hedgeWins     atomic.Int64 // hedge responses that beat the primary
	rateLimited   atomic.Int64 // 429 responses received
	localFallback atomic.Int64 // jobs run locally (pool empty / fully broken)

	batches       atomic.Int64 // POST /v1/batch chunks dispatched
	batchItems    atomic.Int64 // items delivered by verified batch stream lines
	batchFallback atomic.Int64 // batch items demoted to the per-item Run path
	peerHits      atomic.Int64 // dispatches short-circuited by a peer store hit
	peerMisses    atomic.Int64 // peer lookups that found nothing

	digestMismatch    atomic.Int64 // responses rejected by digest verification
	audits            atomic.Int64 // sampled cross-backend audits performed
	auditDisagree     atomic.Int64 // audits where the two digests differed
	auditInconclusive atomic.Int64 // disagreements with no usable majority
	quarantinedTotal  atomic.Int64 // backends quarantined as byzantine
}

// registerMetrics declares the client's families: its counters, circuit
// state, and per-backend request/error/latency series, labelled by
// backend URL.
func (c *Client) registerMetrics() {
	m, r := &c.metrics, c.reg
	r.Counter("fleet_dispatched_total", "Requests dispatched to backends, including retries and hedges.", m.dispatched.Load)
	r.Counter("fleet_retried_total", "Dispatches that were retries after a failed attempt.", m.retried.Load)
	r.Counter("fleet_hedged_total", "Hedged (duplicate) requests launched to cut tail latency.", m.hedged.Load)
	r.Counter("fleet_hedge_wins_total", "Hedged requests that answered before the primary.", m.hedgeWins.Load)
	r.Counter("fleet_rate_limited_total", "429 responses received from backends.", m.rateLimited.Load)
	r.Counter("fleet_local_fallback_total", "Jobs executed locally because no backend could take them.", m.localFallback.Load)
	r.Counter("fleet_batches_total", "Batch chunks dispatched via POST /v1/batch.", m.batches.Load)
	r.Counter("fleet_batch_items_total", "Items delivered by verified batch stream lines.", m.batchItems.Load)
	r.Counter("fleet_batch_item_fallback_total", "Batch items demoted to the per-item dispatch path.", m.batchFallback.Load)
	r.Counter("fleet_peer_hits_total", "Dispatches short-circuited by a peer result-store hit.", m.peerHits.Load)
	r.Counter("fleet_peer_misses_total", "Peer result-store lookups that found nothing.", m.peerMisses.Load)
	r.Counter("fleet_digest_mismatch_total", "Responses rejected because the result digest failed verification.", m.digestMismatch.Load)
	r.Counter("fleet_audits_total", "Sampled cross-backend result audits performed.", m.audits.Load)
	r.Counter("fleet_audit_disagreements_total", "Audits where two backends returned different result digests.", m.auditDisagree.Load)
	r.Counter("fleet_audit_inconclusive_total", "Audit disagreements that could not be settled by majority vote.", m.auditInconclusive.Load)
	r.Counter("fleet_quarantined_total", "Backends quarantined for corrupt or byzantine results.", m.quarantinedTotal.Load)
	r.Counter("fleet_circuit_open_total", "Circuit-breaker transitions to open (broken backend detected).", func() int64 {
		var opens int64
		for _, b := range c.backends {
			opens += b.breaker.openCount()
		}
		return opens
	})
	r.Gauge("fleet_backends", "Backends registered in the pool.", func() int64 { return int64(len(c.backends)) })
	r.Gauge("fleet_backends_healthy", "Backends currently routable (probe up, circuit not open).", func() int64 { return int64(c.Healthy()) })

	if len(c.backends) == 0 {
		return
	}
	urls := make([]string, len(c.backends))
	for i, b := range c.backends {
		urls[i] = b.url
	}
	counter := func(name, help string, v func(*backend) int64) {
		r.CounterVec(name, help, "backend", urls, func(i int) int64 { return v(c.backends[i]) })
	}
	gauge := func(name, help string, v func(*backend) int64) {
		r.GaugeVec(name, help, "backend", urls, func(i int) int64 { return v(c.backends[i]) })
	}
	flag := func(set bool) int64 {
		if set {
			return 1
		}
		return 0
	}
	counter("fleet_backend_requests_total", "Requests sent to this backend.", func(b *backend) int64 { return b.requests.Load() })
	counter("fleet_backend_errors_total", "Failed requests to this backend (transport, 5xx, timeout).", func(b *backend) int64 { return b.errors.Load() })
	counter("fleet_backend_rate_limited_total", "429 responses from this backend.", func(b *backend) int64 { return b.ratelim.Load() })
	gauge("fleet_backend_inflight", "Requests in flight to this backend now.", func(b *backend) int64 { return b.inflight.Load() })
	gauge("fleet_backend_up", "1 when the last health probe succeeded.", func(b *backend) int64 { up, _ := b.probed(); return flag(up) })
	gauge("fleet_backend_circuit_state", "Circuit state: 0 closed, 1 half-open, 2 open.", func(b *backend) int64 { return int64(b.breaker.state()) })
	counter("fleet_backend_digest_mismatch_total", "Responses from this backend rejected by digest verification.", func(b *backend) int64 { return b.digestBad.Load() })
	gauge("fleet_backend_quarantined", "1 when this backend is quarantined (corrupt or byzantine results).", func(b *backend) int64 { return flag(b.quarantined.Load()) })
	r.MicrosCounterVec("fleet_backend_latency_seconds_sum", "Cumulative latency of successful requests.", "backend", urls,
		func(i int) int64 { return c.backends[i].latSumUs.Load() })
	counter("fleet_backend_latency_seconds_count", "Successful requests measured.", func(b *backend) int64 { return b.latCount.Load() })
}

// WriteMetrics renders the client's counters, circuit state, and
// per-backend request/error/latency series in Prometheus text
// exposition format.
func (c *Client) WriteMetrics(w io.Writer) { c.reg.Write(w) }
