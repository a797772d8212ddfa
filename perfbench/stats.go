package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to count as measured rather than as the maximum.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// dist summarizes one latency sample: the median, the highest candidate
// percentile with at least minBeyond samples above it, and the count.
type dist struct {
	N     int
	P50   float64
	TailP float64
	Tail  float64
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least minBeyond samples
// strictly above the p-th percentile's rank.
func supported(p float64, n int) bool { return n-rank(p, n) >= minBeyond }

// percentile returns the nearest-rank p-th percentile of xs, which need
// not be sorted. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize computes the median and the highest supported tail. With
// fewer than minBeyond+1 samples no tail is supported and TailP is 0.
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := sortedCopy(xs)
	d.P50 = s[rank(50, len(s))-1]
	for _, p := range tailCandidates {
		if supported(p, len(s)) {
			d.TailP, d.Tail = p, s[rank(p, len(s))-1]
			break
		}
	}
	return d
}

// tally counts attempted and failed operations. A failed output check
// that invalidates the whole run (a wrong committed digest, rounds that
// disagree) marks every attempted operation failed.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	all       bool
}

// add records n operations of which failed did not succeed.
func (t *tally) add(n, failed int) {
	t.mu.Lock()
	t.attempted += int64(n)
	t.failed += int64(failed)
	t.mu.Unlock()
}

// failAll marks the run's output wrong: every operation, including
// ones counted later, is failed.
func (t *tally) failAll() {
	t.mu.Lock()
	t.all = true
	t.mu.Unlock()
}

// counts returns attempted and failed, with failed = attempted after
// failAll.
func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.all {
		return t.attempted, t.attempted
	}
	return t.attempted, t.failed
}

// frac is failed ÷ attempted; 1 when nothing was attempted, because a
// run that did no work has not shown a correct output.
func (t *tally) frac() float64 {
	a, f := t.counts()
	if a == 0 {
		return 1
	}
	return float64(f) / float64(a)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
