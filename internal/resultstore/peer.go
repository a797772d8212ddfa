package resultstore

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// DefaultPeerTimeout bounds one whole peer lookup when the caller
// passes no budget. Peer lookups are an optimization on the way to a
// simulation, so the default is deliberately tight: a slow peer must
// never cost more than the simulation it would have saved. Deployments
// with slower networks raise it (adts-sweep -peer-timeout).
const DefaultPeerTimeout = 500 * time.Millisecond

// PeerConfig tunes a PeerClient. Zero values select the documented
// defaults.
type PeerConfig struct {
	// Peers are smtsimd base URLs to consult (already normalized; the
	// fleet client passes its backend pool).
	Peers []string
	// Timeout bounds one whole lookup (all peers, in parallel); <= 0
	// selects DefaultPeerTimeout.
	Timeout time.Duration
	// HTTPClient overrides the transport; nil selects a dedicated
	// client.
	HTTPClient *http.Client
}

// The negative-lookup cache is bounded in size and in age: a
// long-lived process must not grow one entry per distinct miss, and a
// key some peer computed after the miss must reach the peers again.
const (
	negativeCacheSize = 4096
	negativeCacheTTL  = time.Minute
)

// PeerClient is the tier-2 read path: GET /v1/result/{key} against
// every peer in parallel, first verified hit wins. Keys that every
// peer missed are remembered for negativeCacheTTL (negative-lookup
// short-circuit) so a sweep full of new configs pays the peer
// round-trip once per key, not once per retry. All failures —
// timeouts, resets, corrupt bodies, digest mismatches — are misses;
// chaos on the peer path can cost latency, never correctness.
type PeerClient struct {
	cfg  PeerConfig
	http *http.Client
	now  func() time.Time

	negMu sync.Mutex
	neg   map[string]time.Time // key -> when every peer missed it
}

// NewPeerClient builds a tier-2 lookup client over the given peers.
func NewPeerClient(cfg PeerConfig) *PeerClient {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultPeerTimeout
	}
	c := &PeerClient{cfg: cfg, http: cfg.HTTPClient, now: time.Now, neg: make(map[string]time.Time)}
	if c.http == nil {
		c.http = &http.Client{}
	}
	return c
}

// Lookup implements PeerLookup: it asks every peer for the key in
// parallel and returns the first entry that digest-verifies. A key no
// peer had is negative-cached and short-circuits future lookups.
func (p *PeerClient) Lookup(ctx context.Context, key string) (*Entry, bool) {
	if len(p.cfg.Peers) == 0 || !ValidKey(key) {
		return nil, false
	}
	if p.knownMiss(key) {
		return nil, false
	}

	lctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()

	results := make(chan *Entry, len(p.cfg.Peers))
	var wg sync.WaitGroup
	for _, peer := range p.cfg.Peers {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			results <- getEntry(lctx, p.http, base, key)
		}(peer)
	}
	go func() { wg.Wait(); close(results) }()

	for e := range results {
		if e != nil {
			cancel() // losers are abandoned
			return e, true
		}
	}
	p.rememberMiss(key)
	return nil, false
}

// knownMiss reports whether every peer missed key within the last
// negativeCacheTTL.
func (p *PeerClient) knownMiss(key string) bool {
	p.negMu.Lock()
	defer p.negMu.Unlock()
	at, ok := p.neg[key]
	if ok && p.now().Sub(at) >= negativeCacheTTL {
		delete(p.neg, key)
		return false
	}
	return ok
}

// rememberMiss negative-caches key. A full cache drops its oldest
// entry first, which is an expired one whenever any has expired.
func (p *PeerClient) rememberMiss(key string) {
	p.negMu.Lock()
	defer p.negMu.Unlock()
	if len(p.neg) >= negativeCacheSize {
		var oldest string
		for k, at := range p.neg {
			if oldest == "" || at.Before(p.neg[oldest]) {
				oldest = k
			}
		}
		delete(p.neg, oldest)
	}
	p.neg[key] = p.now()
}

// getEntry GETs one entry from one peer's /v1/result/{key} and
// digest-verifies it before returning; any failure is a nil (miss).
// Shared by the lookup client and the replicator; every byte crossing
// the fleet passes through this verification regardless of which
// subsystem asked for it.
func getEntry(ctx context.Context, hc *http.Client, base, key string) *Entry {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/result/"+key, nil)
	if err != nil {
		return nil
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil
	}
	var e Entry
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&e); err != nil {
		return nil
	}
	if e.Key != key || !e.Verify() {
		return nil
	}
	return &e
}
