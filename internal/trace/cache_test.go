package trace

import (
	"testing"

	"repro/internal/rng"
)

// TestCachedProgramsReplayExact is the property the trace cache rests
// on: a replay-backed program must emit the exact instruction stream a
// fresh program does — through the recorded prefix, across the
// prefix/live boundary, and well beyond it — and expose the same
// mid-stream phase state to WrongPathInst.
func TestCachedProgramsReplayExact(t *testing.T) {
	FlushTraceCache()
	defer FlushTraceCache()

	const (
		threads   = 8
		seed      = 5
		perThread = 1000
		compare   = 3500 // crosses the boundary with plenty to spare
	)
	mix, _ := MixByName("kitchen-sink")
	fresh, err := mix.Programs(threads, seed)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := CachedPrograms("kitchen-sink", threads, seed, perThread)
	if err != nil {
		t.Fatal(err)
	}

	for tid := 0; tid < threads; tid++ {
		f, c := fresh[tid], cached[tid]
		for i := 0; i < compare; i++ {
			fi, ci := f.Next(), c.Next()
			if fi != ci {
				t.Fatalf("thread %d inst %d diverged:\nfresh  %+v\nreplay %+v", tid, i, fi, ci)
			}
			// Wrong-path synthesis observes the generator's phase; two
			// identical PRNGs must draw identical wrong-path streams at
			// every point, including mid-prefix.
			if i%257 == 0 {
				wf, wc := rng.New(uint64(i)), rng.New(uint64(i))
				pf := f.WrongPathInst(&wf, fi.PC+1)
				pc := c.WrongPathInst(&wc, ci.PC+1)
				if pf != pc {
					t.Fatalf("thread %d inst %d: wrong-path diverged:\nfresh  %+v\nreplay %+v", tid, i, pf, pc)
				}
			}
		}
		if f.Seq() != c.Seq() {
			t.Fatalf("thread %d: seq diverged: %d vs %d", tid, f.Seq(), c.Seq())
		}
	}
}

// TestCachedProgramsIndependentOwners: two programs handed out for the
// same key must not share mutable position state.
func TestCachedProgramsIndependentOwners(t *testing.T) {
	FlushTraceCache()
	defer FlushTraceCache()

	a, err := CachedPrograms("int-memory", 4, 9, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedPrograms("int-memory", 4, 9, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Advance a's stream; b must still start from the beginning.
	first := make([]uint64, len(a))
	for tid := range a {
		first[tid] = a[tid].Next().PC
		for i := 0; i < 50; i++ {
			a[tid].Next()
		}
	}
	for tid := range b {
		if pc := b[tid].Next().PC; pc != first[tid] {
			t.Fatalf("thread %d: second owner started at PC %#x, want %#x", tid, pc, first[tid])
		}
	}
}

// TestCachedProgramsGrowsPrefix: asking for a longer prefix than cached
// re-records rather than serving the short one as if it were long.
func TestCachedProgramsGrowsPrefix(t *testing.T) {
	FlushTraceCache()
	defer FlushTraceCache()

	if _, err := CachedPrograms("fp-stream", 2, 1, 10); err != nil {
		t.Fatal(err)
	}
	ps, err := CachedPrograms("fp-stream", 2, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ps[0].replay); got != 500 {
		t.Fatalf("prefix length = %d after growth request, want 500", got)
	}
}

// TestTraceCacheBounded: recording one more distinct (mix, threads,
// seed) key than maxCachedTraces leaves at most maxCachedTraces
// recordings resident, and the newest one is served from the cache
// rather than re-recorded.
func TestTraceCacheBounded(t *testing.T) {
	FlushTraceCache()
	defer FlushTraceCache()

	var newest cacheKey
	for seed := uint64(1); seed <= maxCachedTraces+1; seed++ {
		if _, err := CachedPrograms("int-compute", 2, seed, 16); err != nil {
			t.Fatal(err)
		}
		newest = cacheKey{mix: "int-compute", threads: 2, seed: seed}
	}

	cacheMu.Lock()
	resident, recorded := len(traceCache), traceCache[newest]
	cacheMu.Unlock()
	if resident > maxCachedTraces {
		t.Fatalf("%d recordings resident after %d keys, bound is %d", resident, maxCachedTraces+1, maxCachedTraces)
	}
	if recorded == nil {
		t.Fatal("newest recording was evicted")
	}
	if _, err := CachedPrograms(newest.mix, newest.threads, newest.seed, 16); err != nil {
		t.Fatal(err)
	}
	cacheMu.Lock()
	again := traceCache[newest]
	cacheMu.Unlock()
	if again != recorded {
		t.Fatal("newest key was re-recorded instead of hit")
	}
}
