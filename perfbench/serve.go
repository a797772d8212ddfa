package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/simserver"
	"repro/internal/trace"
)

// handlerSamples is how many warm bodies the traced run sends straight
// to Handler().ServeHTTP, without a connection.
const handlerSamples = 2000

// serveWorkload drives an in-process smtsimd behind a loopback HTTP
// server with nproc closed-loop clients, each on one keep-alive
// connection.
type serveWorkload struct {
	seed  uint64
	nproc int
	in    *serveInputs
}

// serveEnv is one server instance over a fresh store.
type serveEnv struct {
	dir     string
	store   *resultstore.Tiered
	srv     *simserver.Server
	ts      *httptest.Server
	clients []*http.Client
}

// start opens a fresh tiered store (memory tier a quarter of the key
// set, so most warm reads fall through to disk) and serves it.
func (w *serveWorkload) start() (*serveEnv, error) {
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return nil, err
	}
	disk, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	store := resultstore.NewTiered(resultstore.NewMemory(serveKeys/4), disk, nil)
	srv := simserver.New(simserver.Config{Workers: w.nproc, Store: store})
	e := &serveEnv{dir: dir, store: store, srv: srv, ts: httptest.NewServer(srv.Handler())}
	for c := 0; c < w.nproc; c++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	resp, err := e.clients[0].Get(e.ts.URL + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the clients, the HTTP server and the simulation server,
// closes the store and removes its directory.
func (e *serveEnv) close() error {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if cerr := e.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// simulations reads smtsimd_simulations_total from /metrics.
func (e *serveEnv) simulations() (int64, error) {
	resp, err := e.clients[0].Get(e.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "smtsimd_simulations_total "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("metrics: no smtsimd_simulations_total")
}

// setup is the process-level set-up: trace catalogue, input
// generation, one warm-up simulation of a seed-independent shape, server
// start and store open. It returns the server's teardown, which the
// caller runs untimed; each round starts its own server so that its cold
// phase meets an empty store.
func (w *serveWorkload) setup() (func() error, error) {
	pipeline.DrainPools()
	trace.FlushTraceCache()
	if err := loadCatalogue(8); err != nil {
		return nil, err
	}
	in, err := genServe(w.seed)
	if err != nil {
		return nil, err
	}
	w.in = in
	warm := core.DefaultConfig(trace.Mixes()[0].Name)
	warm.Seed = w.seed << 20
	warm.FastForward, warm.Quanta = serveFastForward, 2
	if _, err := simrun.Run(context.Background(), warm); err != nil {
		return nil, err
	}
	e, err := w.start()
	if err != nil {
		return nil, err
	}
	return e.close, nil
}

// phase is one timed phase of a round.
type phase struct {
	wall   time.Duration
	lat    []float64 // ms per operation
	ops    int
	failed int
	errs   []error
}

// runPhase runs n operations over the clients in a closed loop: client
// c issues operations c, c+nc, c+2nc, ... one after another.
func runPhase(clients []*http.Client, n int, op func(c *http.Client, i int) error) phase {
	lat := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += len(clients) {
				t := time.Now()
				errs[i] = op(clients[c], i)
				lat[i] = float64(time.Since(t).Nanoseconds()) / 1e6
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start), lat: lat, ops: n}
	for _, err := range errs {
		if err != nil {
			p.failed++
			if len(p.errs) < 3 {
				p.errs = append(p.errs, err)
			}
		}
	}
	return p
}

// cfgReply is the /v1/runcfg reply, with the result kept as raw bytes
// so replies can be compared byte for byte.
type cfgReply struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
	Digest string          `json:"digest"`
	Cached bool            `json:"cached"`
}

// verifyResult recomputes the digest of a raw result client-side.
func verifyResult(raw json.RawMessage, digest string) (core.Result, error) {
	var res core.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return res, fmt.Errorf("decoding result: %w", err)
	}
	if got := simrun.ResultDigest(res); got != digest || digest == "" {
		return res, fmt.Errorf("digest mismatch: reply %q, recomputed %q", digest, got)
	}
	return res, nil
}

func postRunCfg(c *http.Client, url string, body []byte, key string) (cfgReply, core.Result, error) {
	var r cfgReply
	resp, err := c.Post(url+"/v1/runcfg", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, core.Result{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, core.Result{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, core.Result{}, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, core.Result{}, fmt.Errorf("decoding reply: %w", err)
	}
	if r.Key != key {
		return r, core.Result{}, fmt.Errorf("reply key %q, want %q", r.Key, key)
	}
	if h := resp.Header.Get("X-Result-Digest"); h != r.Digest {
		return r, core.Result{}, fmt.Errorf("header digest %q, body digest %q", h, r.Digest)
	}
	res, err := verifyResult(r.Result, r.Digest)
	return r, res, err
}

// batchLine is one NDJSON line of a /v1/batch reply: an item or the
// trailer.
type batchLine struct {
	Index   int             `json:"index"`
	Key     string          `json:"key"`
	Result  json.RawMessage `json:"result"`
	Digest  string          `json:"digest"`
	Error   string          `json:"error"`
	Trailer bool            `json:"trailer"`
	Total   int             `json:"total"`
	OK      int             `json:"ok"`
	Errors  int             `json:"errors"`
	Cached  int             `json:"cached_total"`
}

// serveRound is one cold → warm → batch pass over a fresh server.
type serveRound struct {
	cold, warm, batch phase
	coldCycles        int64
	digest            string
	sims              int64
	memHits, diskHits int64
	handlerUS         []float64
	err               error
}

func (r *serveRound) attempted() int { return r.cold.ops + r.warm.ops + serveKeys }
func (r *serveRound) failed() int    { return r.cold.failed + r.warm.failed + r.batch.failed }

// round runs one round. With handler set it also times
// Handler().ServeHTTP on warm bodies after the store counts are read.
func (w *serveWorkload) round(handler bool) *serveRound {
	r := &serveRound{}
	e, err := w.start()
	if err != nil {
		r.err = err
		return r
	}
	defer func() {
		if cerr := e.close(); cerr != nil && r.err == nil {
			r.err = cerr
		}
	}()
	in := w.in
	url := e.ts.URL
	coldRaw := make([]json.RawMessage, serveKeys)
	coldDigest := make([]string, serveKeys)
	cycles := make([]int64, serveKeys)

	r.cold = runPhase(e.clients, serveKeys, func(c *http.Client, i int) error {
		rep, res, err := postRunCfg(c, url, in.bodies[i], in.keys[i])
		if err != nil {
			return err
		}
		if err := checkResult(in.cfgs[i], res); err != nil {
			return fmt.Errorf("output check: %w", err)
		}
		coldRaw[i], coldDigest[i] = rep.Result, rep.Digest
		cycles[i] = in.cfgs[i].FastForward + res.Cycles
		return nil
	})
	for _, c := range cycles {
		r.coldCycles += c
	}
	r.digest = outputDigest(in.keys, coldDigest)

	r.warm = runPhase(e.clients, len(in.warm), func(c *http.Client, p int) error {
		i := in.warm[p]
		rep, _, err := postRunCfg(c, url, in.bodies[i], in.keys[i])
		if err != nil {
			return err
		}
		if !rep.Cached {
			return fmt.Errorf("warm request for %s was not served from the store", in.keys[i])
		}
		if !bytes.Equal(rep.Result, coldRaw[i]) {
			return fmt.Errorf("warm reply for %s differs from the cold reply", in.keys[i])
		}
		return nil
	})

	itemsFailed := make([]int, len(in.chunks))
	r.batch = runPhase(e.clients, len(in.chunks), func(c *http.Client, k int) error {
		failed, err := postBatch(c, url, in.chunks[k], in.keys, coldRaw)
		itemsFailed[k] = failed
		return err
	})
	r.batch.ops, r.batch.failed = serveKeys, 0
	for _, f := range itemsFailed {
		r.batch.failed += f
	}

	r.memHits = e.store.Metrics().Hits(resultstore.TierMemory)
	r.diskHits = e.store.Metrics().Hits(resultstore.TierDisk)
	if r.sims, err = e.simulations(); err != nil {
		r.err = err
		return r
	}
	if handler {
		r.handlerUS, r.err = handlerPass(e.srv.Handler(), in)
	}
	return r
}

// postBatch sends one chunk and checks every line: key, digest
// recomputed, result byte-identical to the cold reply, every index
// exactly once, and a trailer whose counts match, with every item served
// from the store. It returns how many of the chunk's items failed; a
// truncated stream fails them all.
func postBatch(c *http.Client, url string, ch chunk, keys []string, coldRaw []json.RawMessage) (int, error) {
	resp, err := c.Post(url+"/v1/batch", "application/json", bytes.NewReader(ch.body))
	if err != nil {
		return ch.n, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return ch.n, fmt.Errorf("batch status %s", resp.Status)
	}
	seen := make([]bool, ch.n)
	failed := 0
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var trailer *batchLine
	for sc.Scan() {
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return ch.n, fmt.Errorf("batch line: %w", err)
		}
		if l.Trailer {
			trailer = &l
			break
		}
		if l.Index < 0 || l.Index >= ch.n || seen[l.Index] {
			return ch.n, fmt.Errorf("batch line index %d out of range or repeated", l.Index)
		}
		seen[l.Index] = true
		switch _, err := verifyResult(l.Result, l.Digest); {
		case l.Error != "":
			fail(fmt.Errorf("batch item %d: %s", l.Index, l.Error))
		case l.Key != keys[ch.start+l.Index]:
			fail(fmt.Errorf("batch item %d has key %q, want %q", l.Index, l.Key, keys[ch.start+l.Index]))
		case err != nil:
			fail(err)
		case !bytes.Equal(l.Result, coldRaw[ch.start+l.Index]):
			fail(fmt.Errorf("batch item %d differs from the cold reply", l.Index))
		}
	}
	if err := sc.Err(); err != nil {
		return ch.n, err
	}
	if trailer == nil || trailer.Total != ch.n || trailer.OK != ch.n || trailer.Errors != 0 || trailer.Cached != ch.n {
		return ch.n, fmt.Errorf("batch stream truncated or trailer wrong: %+v", trailer)
	}
	for _, s := range seen {
		if !s {
			return ch.n, fmt.Errorf("batch stream is missing items")
		}
	}
	return failed, firstErr
}

// handlerPass sends warm bodies straight to the handler on a recorder:
// the server's own time for a warm request, without the connection.
func handlerPass(h http.Handler, in *serveInputs) ([]float64, error) {
	n := min(handlerSamples, len(in.warm))
	out := make([]float64, 0, n)
	for p := 0; p < n; p++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/runcfg", bytes.NewReader(in.bodies[in.warm[p]]))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		out = append(out, float64(time.Since(start).Nanoseconds())/1e3)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler: status %d", rec.Code)
		}
	}
	return out, nil
}

// inProcess is the traced serve pass: the workload's own request bodies
// through the layers in handleRunCfg's order, with no HTTP in between.
type inProcess struct {
	wall              time.Duration
	digest            string
	work              work
	machine           machineWork
	streams           []detStream
	memHits, diskHits int64
	entryBytes        []float64
	err               error
}

// runInProcess runs every cold body once, then every warm body, on a
// fresh store. tr nil is the untraced mode.
func (w *serveWorkload) runInProcess(tr *tracer) *inProcess {
	out := &inProcess{}
	dir, err := os.MkdirTemp(workdir, "inproc-")
	if err != nil {
		out.err = err
		return out
	}
	defer os.RemoveAll(dir)
	disk, err := resultstore.OpenDisk(dir, resultstore.DiskOptions{})
	if err != nil {
		out.err = err
		return out
	}
	mem := resultstore.NewMemory(serveKeys / 4)
	in := w.in
	digests := make([]string, serveKeys)
	var buf bytes.Buffer

	request := func(run string, body []byte, warm bool) (string, error) {
		root := tr.begin("simserver.request", run, -1)
		defer tr.end(root)
		sp := tr.begin("simserver.decode", run, root)
		var cfg core.Config
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&cfg)
		tr.end(sp)
		if err != nil {
			return "", err
		}
		sp = tr.begin("simserver.validate", run, root)
		err = cfg.Validate()
		tr.end(sp)
		if err != nil {
			return "", err
		}
		sp = tr.begin("simrun.key", run, root)
		key := "cfg:" + simrun.Key(cfg)
		tr.end(sp)

		get := tr.begin("resultstore.get", run, root)
		sp = tr.begin("resultstore.memory_get", run, get)
		e, ok := mem.Get(key)
		tr.end(sp)
		if ok && warm {
			out.memHits++
		}
		if !ok {
			sp = tr.begin("resultstore.disk_get", run, get)
			e, ok = disk.Get(key)
			tr.end(sp)
			if ok {
				if warm {
					out.diskHits++
				}
				mem.Put(e)
			}
		}
		tr.end(get)

		cached := ok
		if !ok {
			sp = tr.begin("simrun.run", run, root)
			res, st, err := simulateTraced(tr, run, sp, cfg)
			tr.end(sp)
			if err != nil {
				return "", err
			}
			if err := checkResult(cfg, res); err != nil {
				return "", fmt.Errorf("output check: %w", err)
			}
			out.work.addResult(cfg, res)
			out.machine.add(st.machine)
			if st.quanta != nil {
				out.streams = append(out.streams, detStream{cfg: cfg.Detector, quanta: st.quanta, switches: res.Detector.Switches})
			}
			sp = tr.begin("simrun.report", run, root)
			report := simrun.Report(cfg, res, simrun.ReportOptions{})
			tr.end(sp)
			sp = tr.begin("simrun.digest", run, root)
			digest := simrun.ResultDigest(res)
			tr.end(sp)
			e = &resultstore.Entry{Key: key, Result: res, Report: report, Digest: digest}
			put := tr.begin("resultstore.put", run, root)
			sp = tr.begin("resultstore.memory_put", run, put)
			mem.Put(e)
			tr.end(sp)
			sp = tr.begin("resultstore.disk_put", run, put)
			err = disk.Put(e)
			tr.end(sp)
			tr.end(put)
			if err != nil {
				return "", err
			}
		}
		sp = tr.begin("simserver.encode", run, root)
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err = enc.Encode(encodedReply{Key: key, Result: e.Result, Digest: e.Digest, Cached: cached})
		tr.end(sp)
		return e.Digest, err
	}

	start := time.Now()
	for i, body := range in.bodies {
		if digests[i], err = request("cold-"+strconv.Itoa(i), body, false); err != nil {
			out.err = err
			return out
		}
	}
	for p, i := range in.warm {
		d, err := request("warm-"+strconv.Itoa(p), in.bodies[i], true)
		if err == nil && d != digests[i] {
			err = fmt.Errorf("warm digest for %s differs from cold", in.keys[i])
		}
		if err != nil {
			out.err = err
			return out
		}
	}
	out.wall = time.Since(start)

	out.digest = outputDigest(in.keys, digests)
	out.entryBytes = entrySizes(dir)
	if err := disk.Close(); err != nil {
		out.err = err
	}
	return out
}

// encodedReply has the field set of the server's /v1/runcfg reply, so
// the in-process pass encodes what the handler encodes.
type encodedReply struct {
	Key       string      `json:"key"`
	Result    core.Result `json:"result"`
	Digest    string      `json:"digest"`
	Cached    bool        `json:"cached"`
	Coalesced bool        `json:"coalesced"`
}

// entrySizes returns the size of every entry file in a disk tier
// directory.
func entrySizes(dir string) []float64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []float64
	for _, de := range ents {
		if de.IsDir() || !strings.HasPrefix(de.Name(), "cfg-") {
			continue
		}
		if fi, err := os.Stat(filepath.Join(dir, de.Name())); err == nil {
			out = append(out, float64(fi.Size()))
		}
	}
	return out
}

// runServe measures the serve workload.
func runServe(w *serveWorkload, out *outcome, deadline time.Duration, tr *tracer) error {
	var rounds []*serveRound
	setup, err := measure(deadline, w.setup, func() {
		rounds = append(rounds, w.round(tr != nil && len(rounds) == 0))
	})
	if err != nil {
		return err
	}
	out.e2e["setup_s"] = setup

	// Rates are the median over rounds, so one round slowed by the host
	// moves them less than a pooled total would.
	first := rounds[0]
	var cold, warm, coldRate, warmRate, mcps, batchRate []float64
	for i, r := range rounds {
		out.tally.add(r.attempted(), r.failed())
		if r.err != nil {
			out.fail("round %d: %v", i, r.err)
		}
		for _, p := range []phase{r.cold, r.warm, r.batch} {
			for _, err := range p.errs {
				fmt.Printf("round %d: %v\n", i, err)
			}
		}
		out.expectEqual("output digests", first.digest, r.digest)
		if r.sims != serveKeys {
			out.fail("round %d: server ran %d simulations, want %d", i, r.sims, serveKeys)
		}
		if hits := r.memHits + r.diskHits; hits != serveWarm+serveKeys {
			out.fail("round %d: %d store hits, want %d", i, hits, serveWarm+serveKeys)
		}
		fmt.Printf("round %d: cold %.3f s, warm %.3f s, batch %.3f s\n",
			i, r.cold.wall.Seconds(), r.warm.wall.Seconds(), r.batch.wall.Seconds())
		cold = append(cold, r.cold.lat...)
		warm = append(warm, r.warm.lat...)
		coldRate = append(coldRate, float64(r.cold.ops)/r.cold.wall.Seconds())
		warmRate = append(warmRate, float64(r.warm.ops)/r.warm.wall.Seconds())
		batchRate = append(batchRate, float64(r.batch.ops)/r.batch.wall.Seconds())
		mcps = append(mcps, float64(r.coldCycles)/r.cold.wall.Seconds()/1e6)
	}
	out.checkDigest("serve", w.seed, first.digest)
	fmt.Printf("work counts per round: simulations=%d store_hits=%d (memory %d, disk %d in round 0; the split depends on client interleaving)\n",
		first.sims, first.memHits+first.diskHits, first.memHits, first.diskHits)
	printDist("cold request", cold)
	printDist("warm request", warm)
	fmt.Printf("batch: %.1f items/s (median over rounds)\n", median(batchRate))

	out.e2e["sim_mcycles_per_s"] = median(mcps)
	out.e2e["sim_ms_p50"] = percentile(cold, 50)
	out.e2e["sims_per_s"] = median(coldRate)
	out.e2e["op_ms_p50"] = percentile(warm, 50)
	if tr == nil {
		return nil
	}

	plain := w.runInProcess(nil)
	traced := w.runInProcess(tr)
	for _, p := range []*inProcess{plain, traced} {
		if p.err != nil {
			out.fail("in-process pass: %v", p.err)
			return nil
		}
		out.tally.add(serveKeys+serveWarm, 0)
		out.expectEqual("output digests", first.digest, p.digest)
	}
	out.expectEqual("work counts", plain.work, traced.work)
	out.expectEqual("store hits per tier", [2]int64{plain.memHits, plain.diskHits}, [2]int64{traced.memHits, traced.diskHits})
	fmt.Printf("in-process work counts: %+v; warm store hits memory=%d disk=%d\n", traced.work, traced.memHits, traced.diskHits)

	spans := tr.snapshot()
	cfgByRun := map[string]core.Config{}
	for i, cfg := range w.in.cfgs {
		cfgByRun["cold-"+strconv.Itoa(i)] = cfg
	}
	pipelineLayers(out, spans, cfgByRun, traced.machine, traced.streams, w.in.cfgs, w.seed)
	warmUS := func(name string) float64 { return median(durationsUS(spans, name, "warm-")) }
	coldUS := func(name string) float64 { return median(durationsUS(spans, name, "cold-")) }
	l := out.layer
	l["simrun.key_us"] = warmUS("simrun.key")
	l["simrun.digest_us"] = coldUS("simrun.digest")
	l["simrun.report_us"] = coldUS("simrun.report")
	l["simserver.decode_us"] = warmUS("simserver.decode")
	l["simserver.validate_us"] = warmUS("simserver.validate")
	l["simserver.encode_us"] = warmUS("simserver.encode")
	l["simserver.handler_us"] = median(first.handlerUS)
	l["simserver.transport_us"] = 1e3*out.e2e["op_ms_p50"] - l["simserver.handler_us"]
	l["simserver.unattributed_us"] = l["simserver.handler_us"] - (l["simserver.decode_us"] + l["simserver.validate_us"] +
		l["simrun.key_us"] + warmUS("resultstore.get") + l["simserver.encode_us"])
	l["simserver.simulations"] = float64(first.sims)
	l["simserver.batch_items_per_s"] = median(batchRate)
	l["simserver.warm_req_per_s"] = median(warmRate)
	l["resultstore.memory_get_us"] = warmUS("resultstore.memory_get")
	l["resultstore.disk_get_us"] = warmUS("resultstore.disk_get")
	l["resultstore.disk_put_ms"] = coldUS("resultstore.disk_put") / 1e3
	l["resultstore.entry_bytes"] = median(traced.entryBytes)
	l["resultstore.memory_hit_frac"] = float64(traced.memHits) / serveWarm
	l["resultstore.disk_hit_frac"] = float64(traced.diskHits) / serveWarm
	tracingLayers(out, spans, plain.wall.Seconds(), traced.wall.Seconds(), traced.wall.Seconds())
	return nil
}
