// Package simserver is the HTTP simulation service behind cmd/smtsimd:
// a JSON API over internal/simrun with three production mechanisms
// layered on top of the deterministic simulator —
//
//  1. Result store: a tiered store (internal/resultstore) keyed by the
//     canonical config hash (internal/runner.ConfigHash) — in-memory
//     LRU, optionally backed by a size-bounded on-disk tier that
//     survives restarts. Simulations are deterministic, so stored
//     results are exact, with no TTL and no invalidation.
//  2. Singleflight: N concurrent identical requests trigger exactly one
//     simulation; the rest coalesce onto its result.
//  3. Admission control: a bounded queue in front of a bounded worker
//     pool. Overflow is rejected immediately with 429 + Retry-After;
//     admitted work gets a per-run timeout; Shutdown drains in-flight
//     simulations before tearing the server down.
//
// Endpoints: POST /v1/run, POST /v1/runcfg, POST /v1/batch (NDJSON
// streaming), GET /v1/result/{key} (peer lookup), GET /v1/mixes,
// GET /healthz, GET /metrics (Prometheus text format from the
// internal/obs registry, no external dependencies).
package simserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/simrun"
	"repro/internal/trace"
)

// RunFunc executes one simulation. Tests inject synthetic runners; the
// default is simrun.Run.
type RunFunc func(ctx context.Context, cfg core.Config) (core.Result, error)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds flights admitted beyond the running ones; 0
	// selects 16, negative selects no queue (reject unless a worker
	// slot is free or soon will be).
	QueueDepth int
	// CacheEntries bounds the result LRU; <= 0 selects 256.
	CacheEntries int
	// RunTimeout bounds one simulation; <= 0 selects 120s.
	RunTimeout time.Duration
	// RetryAfter is the hint sent with 429 responses; <= 0 selects 1s.
	RetryAfter time.Duration
	// Run replaces the simulation executor (tests); nil selects
	// simrun.Run.
	Run RunFunc
	// Store replaces the default memory-only tiered store. Pass a
	// resultstore.NewTiered with a disk tier (cmd/smtsimd -store-dir)
	// to persist results across restarts. The server never closes it:
	// the owner closes the store after Shutdown returns, so the drain
	// path fsyncs the on-disk index exactly once.
	Store *resultstore.Tiered
	// MaxBatchItems bounds one POST /v1/batch request; <= 0 selects
	// 4096.
	MaxBatchItems int
}

// latencyBuckets are the upper bounds (seconds) of the latency
// histograms, chosen for simulation runs that take milliseconds to tens
// of seconds.
var latencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metrics are the server's own instrumentation handles; registerMetrics
// declares their families.
type metrics struct {
	requests    atomic.Int64 // POST /v1/run requests received
	badRequests atomic.Int64 // malformed / invalid config
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64 // requests satisfied by another's flight
	rejected    atomic.Int64 // 429: admission queue full
	canceled    atomic.Int64 // client gone / per-request timeout
	runs        atomic.Int64 // simulations actually executed
	runErrors   atomic.Int64
	panics      atomic.Int64 // recovered panics (handlers + simulations)

	batchRequests atomic.Int64 // POST /v1/batch requests received
	batchItems    atomic.Int64 // batch item lines streamed

	pushAccepts atomic.Int64 // POST /v1/store/push entries verified and stored
	pushRejects atomic.Int64 // pushed entries refused (malformed, bad key, bad digest)

	queueDepth atomic.Int64 // admitted but not yet running
	inFlight   atomic.Int64 // simulations running now

	runLatency   *obs.Histogram // one observation per executed simulation
	batchLatency *obs.Histogram // one observation per completed batch stream

	simCycles  atomic.Int64   // simulated cycles completed, incl. fast-forward
	nsPerCycle *obs.Histogram // summary: one observation per completed simulation
}

// observeRun records one completed simulation: its latency, and its
// cycle count and wall-time cost per simulated cycle. cycles includes
// the fast-forward prefix — that work is simulated whether or not it is
// measured, and throughput dashboards care about what the CPU did.
func (m *metrics) observeRun(elapsed time.Duration, cycles int64) {
	m.runLatency.Observe(elapsed.Seconds())
	if cycles <= 0 {
		return
	}
	m.simCycles.Add(cycles)
	m.nsPerCycle.Observe(float64(elapsed.Nanoseconds()) / float64(cycles))
}

// Server is one simulation service instance. Create with New, expose
// Handler over any http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	store   *resultstore.Tiered
	flights *flightGroup
	metrics metrics
	reg     *obs.Registry

	admit chan struct{} // admitted flights: waiting + running
	sem   chan struct{} // running flights

	baseCtx context.Context // governs simulations; outlives requests
	stop    context.CancelFunc
	wg      sync.WaitGroup // one per executing flight
}

var (
	errOverloaded   = errors.New("simserver: admission queue full")
	errShuttingDown = errors.New("simserver: shutting down")
)

// New builds a server with defaults applied.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 16
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 120 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Run == nil {
		cfg.Run = simrun.Run
	}
	if cfg.Store == nil {
		cfg.Store = resultstore.NewTiered(resultstore.NewMemory(cfg.CacheEntries), nil, nil)
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		store:   cfg.Store,
		flights: newFlightGroup(),
		admit:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		sem:     make(chan struct{}, cfg.Workers),
		baseCtx: ctx,
		stop:    cancel,
		reg:     obs.NewRegistry(),
	}
	s.metrics.runLatency = obs.NewHistogram(latencyBuckets)
	s.metrics.batchLatency = obs.NewHistogram(latencyBuckets)
	s.metrics.nsPerCycle = obs.NewHistogram(nil)
	s.registerMetrics()
	cfg.Store.RegisterMetrics(s.reg)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/runcfg", s.handleRunCfg)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/result/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/store/manifest", s.handleManifest)
	s.mux.HandleFunc("POST /v1/store/push", s.handlePush)
	s.mux.HandleFunc("GET /v1/mixes", s.handleMixes)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.reg)
	return s
}

// registerMetrics declares the server's own families, in exposition
// order.
func (s *Server) registerMetrics() {
	m, r := &s.metrics, s.reg
	r.Counter("smtsimd_requests_total", "POST /v1/run requests received.", m.requests.Load)
	r.Counter("smtsimd_bad_requests_total", "Requests rejected as malformed or invalid.", m.badRequests.Load)
	r.Counter("smtsimd_cache_hits_total", "Run requests served from the result cache.", m.cacheHits.Load)
	r.Counter("smtsimd_cache_misses_total", "Run requests not found in the result cache.", m.cacheMisses.Load)
	r.Counter("smtsimd_singleflight_coalesced_total", "Run requests coalesced onto another request's simulation.", m.coalesced.Load)
	r.Counter("smtsimd_rejected_total", "Run requests rejected with 429 (admission queue full).", m.rejected.Load)
	r.Counter("smtsimd_canceled_total", "Run requests abandoned by client disconnect or timeout.", m.canceled.Load)
	r.Counter("smtsimd_simulations_total", "Simulations actually executed.", m.runs.Load)
	r.Counter("smtsimd_simulation_errors_total", "Simulations that returned an error.", m.runErrors.Load)
	r.Counter("smtsimd_panics_total", "Panics recovered (HTTP handlers and simulation executors); each became a 500 instead of a dead daemon.", m.panics.Load)
	r.Counter("smtsimd_batch_requests_total", "POST /v1/batch requests received.", m.batchRequests.Load)
	r.Counter("smtsimd_batch_items_total", "Batch item result lines streamed.", m.batchItems.Load)
	r.Counter("smtsimd_store_push_accepts_total", "Pushed entries verified and stored (POST /v1/store/push).", m.pushAccepts.Load)
	r.Counter("smtsimd_store_push_rejects_total", "Pushed entries refused as malformed or unverifiable.", m.pushRejects.Load)
	r.Gauge("smtsimd_queue_depth", "Run requests admitted and waiting for a worker.", m.queueDepth.Load)
	r.Gauge("smtsimd_inflight", "Simulations running now.", m.inFlight.Load)
	r.Histogram("smtsimd_run_seconds", "Simulation run latency.", m.runLatency)
	r.Histogram("smtsimd_batch_seconds", "POST /v1/batch end-to-end stream latency.", m.batchLatency)
	r.Counter("smtsimd_sim_cycles_total", "Simulated cycles completed, including fast-forward warmup.", m.simCycles.Load)
	r.Summary("smtsimd_sim_ns_per_cycle", "Wall-clock nanoseconds per simulated cycle, one observation per completed simulation.", m.nsPerCycle)
}

// Handler returns the server's HTTP handler, wrapped in panic
// recovery: a panicking handler becomes a 500 + smtsimd_panics_total
// increment instead of a dead daemon.
func (s *Server) Handler() http.Handler { return recoverMiddleware(s.mux, &s.metrics) }

// Store exposes the server's tiered result store (owned by the caller
// when Config.Store was set; see Config).
func (s *Server) Store() *resultstore.Tiered { return s.store }

// Registry is the daemon's metrics registry, served at /metrics and
// read by /healthz. It holds the server's and the store's families; the
// owner of a scrubber or replicator adds theirs (cmd/smtsimd).
func (s *Server) Registry() *obs.Registry { return s.reg }

// recoverMiddleware converts a handler panic into a 500 response and a
// metric, and keeps the daemon serving. The response write is
// best-effort: if the handler panicked mid-body the client sees a
// truncated reply, but the next request is served normally either way.
func recoverMiddleware(next http.Handler, m *metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				m.panics.Add(1)
				fmt.Fprintf(os.Stderr, "simserver: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Shutdown drains: it waits for every executing flight to settle, then
// stops the simulation context. Call it after http.Server.Shutdown has
// stopped new requests. If ctx expires first, remaining simulations are
// cancelled and ctx.Err() returned.
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.stop()
		<-done
		return ctx.Err()
	}
}

// runResponse is the cacheable part of a POST /v1/run response: it is
// identical no matter which request produced it, so it is exactly a
// stored result entry — the tiered store persists and serves these
// bytes unchanged.
type runResponse = resultstore.Entry

// runReply wraps a runResponse with per-request delivery facts.
type runReply struct {
	*runResponse
	// Cached reports a result served from the LRU without simulating.
	Cached bool `json:"cached"`
	// Coalesced reports a result served by joining another request's
	// in-progress simulation.
	Coalesced bool `json:"coalesced"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)

	var req simrun.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	cfg, err := req.Config()
	if err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, f, coalesced := s.resolve(r.Context(), simrun.Key(cfg), req.Normalize(), cfg, false)
	if f != nil {
		var ok bool
		if resp, ok = s.await(w, r, f); !ok {
			return
		}
	}
	w.Header().Set("X-Result-Digest", resp.Digest)
	writeJSON(w, http.StatusOK, runReply{runResponse: resp, Cached: f == nil, Coalesced: coalesced})
}

// runCfgReply is the POST /v1/runcfg response: the structured result
// for a raw core.Config. This is the transport behind internal/fleet —
// the client ships the exact config a local run would execute, so the
// returned Result is byte-for-byte the same function of the same input
// no matter which backend served it.
type runCfgReply struct {
	// Key is the cache identity the result is stored under.
	Key string `json:"key"`
	// Result is the full structured simulation result.
	Result core.Result `json:"result"`
	// Digest is the canonical SHA-256 of Result (simrun.ResultDigest),
	// echoed in the X-Result-Digest header; internal/fleet verifies it
	// on every response and treats a mismatch as retryable corruption.
	Digest string `json:"digest"`
	// Cached / Coalesced mirror the /v1/run delivery facts.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
}

// handleRunCfg is POST /v1/runcfg: like /v1/run but the body is a raw
// core.Config instead of a user-vocabulary request. It shares the
// admission, singleflight, and cache machinery; cache keys carry a
// "cfg:" prefix so a raw-config entry (whose request echo is empty) is
// never served to a /v1/run caller.
func (s *Server) handleRunCfg(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)

	var cfg core.Config
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&cfg); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding config: %v", err))
		return
	}
	if cfg.Programs != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "config.Programs is not transportable; name a mix instead")
		return
	}
	if err := cfg.Validate(); err != nil {
		s.metrics.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := "cfg:" + simrun.Key(cfg)

	resp, f, coalesced := s.resolve(r.Context(), key, simrun.Request{}, cfg, false)
	if f != nil {
		var ok bool
		if resp, ok = s.await(w, r, f); !ok {
			return
		}
	}
	w.Header().Set("X-Result-Digest", resp.Digest)
	writeJSON(w, http.StatusOK, runCfgReply{Key: key, Result: resp.Result, Digest: resp.Digest, Cached: f == nil, Coalesced: coalesced})
}

// resolve is the one step from a validated config to its result that
// /v1/run, /v1/runcfg and every batch item share: a store hit returns
// the entry (f nil); otherwise the caller gets the flight to wait on —
// joined (coalesced) or newly led, whose leader executes it detached
// under the blockAdmission discipline (see execute). Each caller keeps
// its own decode, wait and reply shape.
func (s *Server) resolve(ctx context.Context, key string, req simrun.Request, cfg core.Config, blockAdmission bool) (hit *runResponse, f *flight, coalesced bool) {
	if e, _, ok := s.store.Get(ctx, key); ok {
		s.metrics.cacheHits.Add(1)
		return e, nil, false
	}
	s.metrics.cacheMisses.Add(1)

	f, leader := s.flights.join(key)
	if leader {
		s.wg.Add(1)
		go s.execute(key, f, req, cfg, blockAdmission)
	} else {
		s.metrics.coalesced.Add(1)
	}
	return nil, f, !leader
}

// await blocks until flight f settles or the caller disconnects. It
// returns ok=false after writing any error reply (or nothing, when the
// client is gone and the flight continues for other waiters).
func (s *Server) await(w http.ResponseWriter, r *http.Request, f *flight) (*runResponse, bool) {
	select {
	case <-f.done:
	case <-r.Context().Done():
		s.metrics.canceled.Add(1)
		return nil, false
	}
	if f.err != nil {
		s.replyError(w, f.err)
		return nil, false
	}
	return f.val, true
}

// execute is the singleflight leader's path: admission, worker slot,
// timed run, store fill, publish. It runs detached from any one request
// so a disconnecting client never kills a flight other clients (or the
// store) are waiting on. blockAdmission selects the batch discipline:
// a per-request flight past a full queue is rejected immediately (429),
// but a batch item's flight waits for a slot — the batch request itself
// was already accepted, so its items queue instead of failing.
func (s *Server) execute(key string, f *flight, req simrun.Request, cfg core.Config, blockAdmission bool) {
	defer s.wg.Done()

	if blockAdmission {
		select {
		case s.admit <- struct{}{}:
		case <-s.baseCtx.Done():
			s.flights.finish(key, f, nil, errShuttingDown)
			return
		}
	} else {
		select {
		case s.admit <- struct{}{}:
		default:
			s.flights.finish(key, f, nil, errOverloaded)
			return
		}
	}
	defer func() { <-s.admit }()

	s.metrics.queueDepth.Add(1)
	select {
	case s.sem <- struct{}{}:
	case <-s.baseCtx.Done():
		s.metrics.queueDepth.Add(-1)
		s.flights.finish(key, f, nil, errShuttingDown)
		return
	}
	s.metrics.queueDepth.Add(-1)
	defer func() { <-s.sem }()

	s.metrics.inFlight.Add(1)
	runCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RunTimeout)
	start := time.Now()
	res, err := s.runSafe(runCtx, cfg)
	elapsed := time.Since(start)
	cancel()
	s.metrics.inFlight.Add(-1)
	s.metrics.runs.Add(1)

	if err != nil {
		s.metrics.runErrors.Add(1)
		s.flights.finish(key, f, nil, err)
		return
	}
	s.metrics.observeRun(elapsed, res.Cycles+cfg.FastForward)
	resp := &runResponse{
		Key:     key,
		Request: req,
		Result:  res,
		Report:  simrun.Report(cfg, res, simrun.ReportOptions{}),
		Digest:  simrun.ResultDigest(res),
	}
	s.store.Put(resp)
	s.flights.finish(key, f, resp, nil)
}

// runSafe executes one simulation with panic containment. The executor
// runs detached from any request goroutine, so the HTTP middleware
// cannot catch a panic here — without this recover, one poisoned config
// would kill the whole daemon instead of failing one flight with a 500.
func (s *Server) runSafe(ctx context.Context, cfg core.Config) (res core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.metrics.panics.Add(1)
			fmt.Fprintf(os.Stderr, "simserver: panic in simulation: %v\n%s", v, debug.Stack())
			res, err = core.Result{}, fmt.Errorf("simserver: simulation panic: %v", v)
		}
	}()
	return s.cfg.Run(ctx, cfg)
}

// replyError maps a flight failure to an HTTP status.
func (s *Server) replyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errOverloaded):
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		httpError(w, http.StatusTooManyRequests, "server overloaded, retry later")
	case errors.Is(err, errShuttingDown), errors.Is(err, context.Canceled):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "simulation exceeded the run timeout")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// mixInfo is one entry of GET /v1/mixes.
type mixInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Apps        []string `json:"apps"`
	Homogeneous bool     `json:"homogeneous"`
}

func (s *Server) handleMixes(w http.ResponseWriter, _ *http.Request) {
	mixes := trace.Mixes()
	out := make([]mixInfo, len(mixes))
	for i, m := range mixes {
		out[i] = mixInfo{Name: m.Name, Description: m.Description, Apps: m.Apps, Homogeneous: m.Homogeneous}
	}
	writeJSON(w, http.StatusOK, out)
}

// Health is the GET /healthz response body. Version lets fleet health
// probes detect backend skew (mixed deployments) and log it;
// StoreState lets them weight dispatch away from degraded backends
// without a second endpoint.
type Health struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	// StoreState is the result store's serving state: "ok",
	// "readonly" (disk refuses writes), or "memory-only" (no serving
	// disk tier). Duplicated from Store.State at the top level so fleet
	// probes can read it without decoding the nested block.
	StoreState string `json:"store_state"`
	// Store is the per-tier store detail for operators and runbooks.
	Store StoreHealth `json:"store"`
}

// StoreHealth is the /healthz store block: occupancy, degraded-state
// detail, and the self-healing counters (quarantines, scrub repairs,
// replication transfers).
type StoreHealth struct {
	State         string `json:"state"`
	StateReason   string `json:"state_reason,omitempty"`
	MemoryEntries int    `json:"memory_entries"`
	DiskEntries   int    `json:"disk_entries"`
	DiskBytes     int64  `json:"disk_bytes"`
	Quarantines   int64  `json:"quarantines"`
	ScrubPasses   int64  `json:"scrub_passes"`
	ScrubRepaired int64  `json:"scrub_repaired"`
	ReplPulls     int64  `json:"replication_pulls"`
	ReplPushes    int64  `json:"replication_pushes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.baseCtx.Err() != nil {
		status = "draining"
	}
	h := Health{
		Status:     status,
		Version:    buildinfo.Version(),
		StoreState: s.store.State(),
	}
	// The store block reads the same registry /metrics renders; a family
	// that is not registered (no disk tier, no scrubber) reads 0.
	v := s.reg.Value
	h.Store = StoreHealth{
		State:         h.StoreState,
		MemoryEntries: int(v("smtsimd_cache_entries")),
		DiskEntries:   int(v("smtsimd_store_disk_entries")),
		DiskBytes:     v("smtsimd_store_disk_bytes"),
		Quarantines:   v("smtsimd_store_disk_quarantines_total"),
		ScrubPasses:   v("smtsimd_scrub_passes_total"),
		ScrubRepaired: v("smtsimd_scrub_repaired_total"),
		ReplPulls:     v("smtsimd_replication_pulls_total"),
		ReplPushes:    v("smtsimd_replication_pushes_total"),
	}
	if disk := s.store.Disk(); disk != nil {
		h.Store.StateReason = disk.StateReason()
	}
	writeJSON(w, http.StatusOK, h)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
