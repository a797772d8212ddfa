package simserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/simserver"
)

var update = flag.Bool("update", false, "rewrite the metrics-surface goldens in testdata/")

// surfaceDaemon is the metrics-surface scenario's daemon: an in-process
// smtsimd over Tiered(Memory(2), Disk(tmp)) with a scrubber and a
// replicator that have no peers, wired the way cmd/smtsimd wires them.
type surfaceDaemon struct {
	url   string
	scrub *resultstore.Scrubber
	repl  *resultstore.Replicator
}

func newSurfaceDaemon(t *testing.T) *surfaceDaemon {
	t.Helper()
	disk, err := resultstore.OpenDisk(t.TempDir(), resultstore.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := resultstore.NewTiered(resultstore.NewMemory(2), disk, nil)
	scrub := resultstore.NewScrubber(store, resultstore.ScrubConfig{Pace: -1})
	repl := resultstore.NewReplicator(store, resultstore.ReplicateConfig{})
	srv := simserver.New(simserver.Config{Workers: 2, Store: store})
	scrub.RegisterMetrics(srv.Registry())
	repl.RegisterMetrics(srv.Registry())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); store.Close() })
	return &surfaceDaemon{url: ts.URL, scrub: scrub, repl: repl}
}

// surfaceConfig is a fast, valid config; seeds make distinct keys.
func surfaceConfig(t *testing.T, seed uint64) core.Config {
	t.Helper()
	req := simrun.Request{Mix: "int-compute", Mode: "fixed", Policy: "ICOUNT", Threads: 2, Quanta: 2, FastForward: -1, Seed: seed}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// exchange sends one request and drains the reply, so every counter the
// handler bumps after its last write has landed before the next step.
func exchange(t *testing.T, method, url string, body any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// normalizeExposition groups a Prometheus text scrape into families
// (one block per "# HELP" line), sorts the blocks by family name, and
// masks what is not deterministic: histogram buckets, every _sum
// series, and the value of the backend label (an ephemeral port).
func normalizeExposition(t *testing.T, text string, backend string) string {
	t.Helper()
	if backend != "" {
		text = strings.ReplaceAll(text, backend, "BACKEND")
	}
	var blocks []string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			blocks = append(blocks, strings.Join(cur, "\n"))
			cur = nil
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			flush()
		}
		if !strings.HasPrefix(line, "#") {
			series, _, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed exposition line %q", line)
			}
			name, _, _ := strings.Cut(series, "{")
			if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
				line = series + " *"
			}
		}
		cur = append(cur, line)
	}
	flush()
	sort.Strings(blocks)
	return strings.Join(blocks, "\n") + "\n"
}

// jsonKeys lists every key path of a decoded JSON object, sorted.
func jsonKeys(prefix string, v map[string]any, out *[]string) {
	for k, child := range v {
		*out = append(*out, prefix+k)
		if m, ok := child.(map[string]any); ok {
			jsonKeys(prefix+k+".", m, out)
		}
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (run with -update after an intended change)\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// TestMetricsSurfaceGolden pins the whole /metrics and /healthz surface
// of smtsimd and the fleet client's exposition: every family's HELP and
// TYPE text, every series with its label set, and every deterministic
// value, after a fixed request sequence.
func TestMetricsSurfaceGolden(t *testing.T) {
	d := newSurfaceDaemon(t)
	a, b, c, e := surfaceConfig(t, 1), surfaceConfig(t, 2), surfaceConfig(t, 3), surfaceConfig(t, 4)
	batch := func(cfgs ...core.Config) map[string]any { return map[string]any{"configs": cfgs} }

	bad := a
	bad.Threads = 0
	steps := []struct {
		method, path string
		body         any
		status       int
	}{
		{"POST", "/v1/runcfg", a, 200},                    // simulate a
		{"POST", "/v1/runcfg", a, 200},                    // memory hit
		{"POST", "/v1/runcfg", bad, 400},                  // bad request
		{"POST", "/v1/batch", batch(b, c), 200},           // simulate b, c; a leaves memory
		{"POST", "/v1/runcfg", a, 200},                    // disk hit, promoted
		{"POST", "/v1/batch", batch(a, e), 200},           // memory hit a, simulate e
		{"POST", "/v1/store/push", map[string]any{}, 400}, // push reject
		{"GET", "/v1/store/manifest", nil, 200},
	}
	for i, s := range steps {
		if got := exchange(t, s.method, d.url+s.path, s.body); got != s.status {
			t.Fatalf("step %d %s %s: status %d, want %d", i, s.method, s.path, got, s.status)
		}
	}
	if rep := d.scrub.ScrubOnce(context.Background()); rep.Scanned != 4 || rep.Corrupt != 0 {
		t.Fatalf("scrub pass = %+v, want 4 scanned, 0 corrupt", rep)
	}
	d.repl.SyncOnce(context.Background())

	metrics := scrape(t, d.url+"/metrics")
	checkGolden(t, "smtsimd_metrics.golden", normalizeExposition(t, metrics, ""))

	var health map[string]any
	if err := json.Unmarshal([]byte(scrape(t, d.url+"/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	var keys []string
	jsonKeys("", health, &keys)
	sort.Strings(keys)
	checkGolden(t, "healthz_keys.golden", strings.Join(keys, "\n")+"\n")

	// /healthz and /metrics report the same store numbers.
	store := health["store"].(map[string]any)
	for field, series := range map[string]string{
		"memory_entries":     "smtsimd_cache_entries",
		"disk_entries":       "smtsimd_store_disk_entries",
		"disk_bytes":         "smtsimd_store_disk_bytes",
		"quarantines":        "smtsimd_store_disk_quarantines_total",
		"scrub_passes":       "smtsimd_scrub_passes_total",
		"scrub_repaired":     "smtsimd_scrub_repaired_total",
		"replication_pulls":  "smtsimd_replication_pulls_total",
		"replication_pushes": "smtsimd_replication_pushes_total",
	} {
		var want string
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				want = v
			}
		}
		got, _ := json.Marshal(store[field])
		if string(got) != want {
			t.Errorf("/healthz store.%s = %s, /metrics %s = %q", field, got, series, want)
		}
	}

	// The fleet client's exposition, after one request it dispatched to
	// the daemon (a stored result, so it answers well inside any hedge
	// or timeout budget).
	fc, err := fleet.New(fleet.Config{Backends: []string{d.url}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.Run(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	fc.WriteMetrics(&out)
	checkGolden(t, "fleet_metrics.golden", normalizeExposition(t, out.String(), d.url))
}
