package resultstore

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// peerServer serves /v1/result/{key} from a canned map, the way
// smtsimd does.
func peerServer(t *testing.T, entries map[string]*Entry, requests *atomic.Int64) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		if requests != nil {
			requests.Add(1)
		}
		e, ok := entries[r.PathValue("key")]
		if !ok {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(e)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestPeerLookupFirstVerifiedHitWins(t *testing.T) {
	e := testEntry("cfg:9999aaaabbbbcccc", 1)
	var requests atomic.Int64
	empty := peerServer(t, nil, &requests)
	full := peerServer(t, map[string]*Entry{e.Key: e}, &requests)

	p := NewPeerClient(PeerConfig{Peers: []string{empty, full}})
	got, ok := p.Lookup(context.Background(), e.Key)
	if !ok || got.Digest != e.Digest {
		t.Fatalf("Lookup = (%v, %v), want the stored entry", got, ok)
	}
	// A hit is not negative-cached: the next lookup asks the peers again.
	before := requests.Load()
	if _, ok := p.Lookup(context.Background(), e.Key); !ok {
		t.Fatal("second Lookup missed")
	}
	if requests.Load() == before {
		t.Fatal("second Lookup never reached a peer")
	}
}

func TestPeerLookupRejectsUnverifiableEntry(t *testing.T) {
	e := testEntry("cfg:dddd0000eeee1111", 2)
	lie := *e
	lie.Result.AggregateIPC *= 2 // digest no longer matches
	var requests atomic.Int64
	peer := peerServer(t, map[string]*Entry{e.Key: &lie}, &requests)

	p := NewPeerClient(PeerConfig{Peers: []string{peer}})
	if _, ok := p.Lookup(context.Background(), e.Key); ok {
		t.Fatal("Lookup served an entry whose digest does not verify")
	}
	if requests.Load() != 1 {
		t.Fatalf("peer asked %d times, want 1", requests.Load())
	}
}

func TestPeerNegativeLookupShortCircuits(t *testing.T) {
	var requests atomic.Int64
	peer := peerServer(t, nil, &requests)
	p := NewPeerClient(PeerConfig{Peers: []string{peer}})

	key := "cfg:2222333344445555"
	for i := 0; i < 3; i++ {
		if _, ok := p.Lookup(context.Background(), key); ok {
			t.Fatal("phantom hit")
		}
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("peer asked %d times, want 1 (negative cache short-circuit)", got)
	}
}

// TestPeerNegativeCacheExpires: a negative entry lives negativeCacheTTL;
// after that the key reaches the peers again (one of them may have
// computed it since).
func TestPeerNegativeCacheExpires(t *testing.T) {
	var requests atomic.Int64
	peer := peerServer(t, nil, &requests)
	p := NewPeerClient(PeerConfig{Peers: []string{peer}})
	now := time.Unix(1_000_000, 0)
	p.now = func() time.Time { return now }

	key := "cfg:7777888899990000"
	p.Lookup(context.Background(), key)
	now = now.Add(negativeCacheTTL - time.Second)
	p.Lookup(context.Background(), key)
	if got := requests.Load(); got != 1 {
		t.Fatalf("peer asked %d times inside the TTL, want 1", got)
	}
	now = now.Add(time.Second)
	p.Lookup(context.Background(), key)
	if got := requests.Load(); got != 2 {
		t.Fatalf("peer asked %d times after the TTL, want 2 (expired key re-asked)", got)
	}
}

// TestPeerNegativeCacheBounded: distinct misses past the bound never
// grow the cache beyond negativeCacheSize; the oldest entry goes first.
func TestPeerNegativeCacheBounded(t *testing.T) {
	p := NewPeerClient(PeerConfig{Peers: []string{"http://unused.invalid"}})
	now := time.Unix(1_000_000, 0)
	p.now = func() time.Time { return now }
	key := func(i int) string { return fmt.Sprintf("cfg:%016x", i) }
	for i := 0; i < negativeCacheSize+10; i++ {
		p.rememberMiss(key(i))
		now = now.Add(time.Millisecond)
	}
	if n := len(p.neg); n != negativeCacheSize {
		t.Fatalf("negative cache holds %d keys, want the bound %d", n, negativeCacheSize)
	}
	if p.knownMiss(key(0)) || !p.knownMiss(key(negativeCacheSize+9)) {
		t.Fatal("a full cache must drop its oldest entry and keep the newest")
	}
}

// TestPeerLookupSurvivesDeadAndSlowPeers is the chaos-tolerance
// contract: a dead peer and a hanging peer must cost at most the
// lookup timeout, and a healthy peer alongside them still answers.
func TestPeerLookupSurvivesDeadAndSlowPeers(t *testing.T) {
	e := testEntry("cfg:6666777788889999", 3)
	healthy := peerServer(t, map[string]*Entry{e.Key: e}, nil)

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused

	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)

	p := NewPeerClient(PeerConfig{
		Peers:   []string{dead.URL, hang.URL, healthy},
		Timeout: 2 * time.Second,
	})
	start := time.Now()
	got, ok := p.Lookup(context.Background(), e.Key)
	if !ok || got.Digest != e.Digest {
		t.Fatal("healthy peer's entry lost among the chaos")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lookup took %s: a hanging peer must not stall a hit", elapsed)
	}

	// All peers broken: a miss, bounded by the timeout, not a hang.
	pBroken := NewPeerClient(PeerConfig{Peers: []string{dead.URL, hang.URL}, Timeout: 200 * time.Millisecond})
	start = time.Now()
	if _, ok := pBroken.Lookup(context.Background(), e.Key); ok {
		t.Fatal("hit from broken peers")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("broken-pool lookup took %s, want ~timeout", elapsed)
	}
}
