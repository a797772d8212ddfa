package resultstore

import (
	"context"
	"testing"
)

// staticPeer is a canned tier-2 lookup for tests.
type staticPeer struct {
	entries map[string]*Entry
	calls   int
}

func (p *staticPeer) Lookup(_ context.Context, key string) (*Entry, bool) {
	p.calls++
	e, ok := p.entries[key]
	return e, ok
}

func TestTieredPromotesDiskHitsToMemory(t *testing.T) {
	mem := NewMemory(4)
	disk := openTestDisk(t, t.TempDir(), DiskOptions{})
	ts := NewTiered(mem, disk, nil)

	e := testEntry("cfg:1212121212121212", 1)
	if err := disk.Put(e); err != nil {
		t.Fatal(err)
	}
	got, tier, ok := ts.Get(context.Background(), e.Key)
	if !ok || tier != TierDisk {
		t.Fatalf("Get = (%v, %q, %v), want disk hit", got, tier, ok)
	}
	if _, tier, _ := ts.Get(context.Background(), e.Key); tier != TierMemory {
		t.Fatalf("second Get served from %q, want promoted memory hit", tier)
	}
	m := ts.Metrics()
	if m.Hits(TierMemory) != 1 || m.Hits(TierDisk) != 1 || m.misses[slotMemory].Load() != 1 {
		t.Fatalf("metrics: mem hits=%d disk hits=%d mem misses=%d",
			m.Hits(TierMemory), m.Hits(TierDisk), m.misses[slotMemory].Load())
	}
}

func TestTieredBackfillsPeerHits(t *testing.T) {
	mem := NewMemory(4)
	disk := openTestDisk(t, t.TempDir(), DiskOptions{})
	e := testEntry("cfg:3434343434343434", 2)
	peer := &staticPeer{entries: map[string]*Entry{e.Key: e}}
	ts := NewTiered(mem, disk, peer)

	_, tier, ok := ts.Get(context.Background(), e.Key)
	if !ok || tier != TierPeer {
		t.Fatalf("tier = %q, want peer", tier)
	}
	// Backfilled: the peer is not consulted again.
	if _, tier, _ := ts.Get(context.Background(), e.Key); tier != TierMemory {
		t.Fatalf("tier after backfill = %q, want memory", tier)
	}
	if peer.calls != 1 {
		t.Fatalf("peer consulted %d times, want 1", peer.calls)
	}
	if _, ok := disk.Get(e.Key); !ok {
		t.Fatal("peer hit not backfilled to disk")
	}
}

func TestTieredPutWritesBothLocalTiers(t *testing.T) {
	mem := NewMemory(4)
	disk := openTestDisk(t, t.TempDir(), DiskOptions{})
	ts := NewTiered(mem, disk, nil)
	e := testEntry("cfg:5656565656565656", 3)
	ts.Put(e)
	if _, ok := mem.Get(e.Key); !ok {
		t.Fatal("memory tier missing the entry")
	}
	if _, ok := disk.Get(e.Key); !ok {
		t.Fatal("disk tier missing the entry")
	}
}

func TestTieredNilTiersAlwaysMiss(t *testing.T) {
	var ts *Tiered
	if _, _, ok := ts.Get(context.Background(), "cfg:anything"); ok {
		t.Fatal("nil store hit")
	}
	ts.Put(testEntry("cfg:anything12345678", 1)) // must not panic
	empty := NewTiered(nil, nil, nil)
	if _, _, ok := empty.Get(context.Background(), "cfg:anything"); ok {
		t.Fatal("tierless store hit")
	}
	if err := empty.Close(); err != nil {
		t.Fatal(err)
	}
}
