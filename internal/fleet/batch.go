package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simrun"
)

// NewPeerLookup builds a tier-2 peer lookup over the pool's
// GET /v1/result/{key} endpoints. A zero timeout selects the peer
// client's default. The returned lookup digest-verifies every entry
// and treats all failures as misses, so it is safe to consult before
// every dispatch.
func NewPeerLookup(backends []string, timeout time.Duration) (resultstore.PeerLookup, error) {
	urls, err := NormalizeURLs(backends)
	if err != nil {
		return nil, err
	}
	return resultstore.NewPeerClient(resultstore.PeerConfig{Peers: urls, Timeout: timeout}), nil
}

// batchPayload is the POST /v1/batch request body.
type batchPayload struct {
	Configs []core.Config `json:"configs"`
}

// batchWireLine is the union of the item and trailer NDJSON line
// shapes streamed by /v1/batch.
type batchWireLine struct {
	Trailer bool         `json:"trailer"`
	Index   int          `json:"index"`
	Key     string       `json:"key"`
	Result  *core.Result `json:"result"`
	Digest  string       `json:"digest"`
	Error   string       `json:"error"`
	Total   int          `json:"total"`
}

// RunBatch dispatches many configs with chunk sharding: the slice is
// cut into BatchSize chunks, each chunk goes to one backend as a
// single POST /v1/batch, and its NDJSON stream is verified line by
// line. A failed chunk (transport error, truncated stream, bad
// trailer) is retried on another backend; items that still fail —
// or whose lines failed digest verification — fall back to the
// per-item Run path, so one corrupt backend degrades a sweep to
// per-item dispatch instead of poisoning it. Results and errors are
// index-aligned with cfgs.
func (c *Client) RunBatch(ctx context.Context, cfgs []core.Config) ([]core.Result, []error) {
	out := make([]core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for start := 0; start < len(cfgs); start += c.cfg.BatchSize {
		end := start + c.cfg.BatchSize
		if end > len(cfgs) {
			end = len(cfgs)
		}
		c.runChunk(ctx, cfgs[start:end], out[start:end], errs[start:end])
	}
	return out, errs
}

// runChunk resolves one chunk: batch dispatch with retries, then
// per-item fallback for whatever the stream did not deliver.
func (c *Client) runChunk(ctx context.Context, cfgs []core.Config, out []core.Result, errs []error) {
	var results []*core.Result
	var itemErrs []error
	var exclude *backend
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
			return
		}
		b := c.pick(exclude)
		if b == nil {
			break // pool empty or fully broken: per-item path decides
		}
		if attempt > 0 {
			c.metrics.retried.Add(1)
		}
		c.metrics.batches.Add(1)
		res, ierrs, err := c.sendBatch(ctx, b, cfgs)
		if err == nil {
			results, itemErrs = res, ierrs
			break
		}
		if ctx.Err() != nil {
			continue // loop re-checks and stamps ctx.Err on every item
		}
		exclude = b
		delay := c.backoff(attempt)
		var rl *rateLimitedError
		if errors.As(err, &rl) && rl.after > 0 {
			delay = rl.after
		}
		if c.cfg.sleep(ctx, delay) != nil {
			continue
		}
	}
	for i := range cfgs {
		if results != nil {
			if itemErrs[i] != nil {
				errs[i] = itemErrs[i]
				continue
			}
			if results[i] != nil {
				out[i] = *results[i]
				continue
			}
		}
		// Not delivered by any batch stream (failed chunk, corrupt line,
		// empty pool): the per-item path retries, hedges, and reports
		// ErrNoBackends so callers can run locally.
		c.metrics.batchFallback.Add(1)
		out[i], errs[i] = c.Run(ctx, cfgs[i])
	}
}

// sendBatch performs one POST /v1/batch against backend b and decodes
// its NDJSON stream. Per-item simulation failures ride in itemErrs;
// lines whose digest does not verify are dropped (counted against b)
// and left nil for the caller to re-fetch. A stream that ends without
// a matching trailer is an error: the whole chunk is unaccounted for.
func (c *Client) sendBatch(ctx context.Context, b *backend, cfgs []core.Config) ([]*core.Result, []error, error) {
	body, err := json.Marshal(batchPayload{Configs: cfgs})
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: encoding batch: %w", err)
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Add(1)

	rctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, b.url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %s: %w", b.url, err)
	}
	req.Header.Set("Content-Type", "application/json")

	start := c.cfg.now()
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		b.errors.Add(1)
		b.breaker.failure()
		return nil, nil, fmt.Errorf("fleet: %s: %w", b.url, err)
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		b.ratelim.Add(1)
		c.metrics.rateLimited.Add(1)
		after := parseRetryAfter(resp.Header.Get("Retry-After"), c.cfg.now(), c.cfg.RetryAfterMax)
		return nil, nil, &rateLimitedError{backend: b.url, after: after}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		b.errors.Add(1)
		b.breaker.failure()
		return nil, nil, fmt.Errorf("fleet: %s: batch status %d: %s", b.url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	results := make([]*core.Result, len(cfgs))
	itemErrs := make([]error, len(cfgs))
	dec := json.NewDecoder(resp.Body)
	sawTrailer := false
	for !sawTrailer {
		var line batchWireLine
		if derr := dec.Decode(&line); derr != nil {
			// io.EOF before the trailer is a truncated stream (killed
			// backend, dropped connection); anything else is framing
			// corruption. Either way the chunk is unaccounted for.
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			b.errors.Add(1)
			b.breaker.failure()
			return nil, nil, fmt.Errorf("fleet: %s: batch stream broke before the trailer: %v", b.url, derr)
		}
		if line.Trailer {
			if line.Total != len(cfgs) {
				b.errors.Add(1)
				b.breaker.failure()
				return nil, nil, fmt.Errorf("fleet: %s: batch trailer accounts for %d items, sent %d", b.url, line.Total, len(cfgs))
			}
			sawTrailer = true
			continue
		}
		if line.Index < 0 || line.Index >= len(cfgs) {
			b.errors.Add(1)
			b.breaker.failure()
			return nil, nil, fmt.Errorf("fleet: %s: batch line index %d out of range", b.url, line.Index)
		}
		if line.Error != "" {
			itemErrs[line.Index] = fmt.Errorf("fleet: %s: batch item %d: %s", b.url, line.Index, line.Error)
			continue
		}
		if line.Result == nil {
			itemErrs[line.Index] = fmt.Errorf("fleet: %s: batch item %d: empty result line", b.url, line.Index)
			continue
		}
		// Per-line end-to-end integrity, same contract as /v1/runcfg: a
		// bad line costs one per-item re-fetch, not the chunk.
		if line.Digest == "" || simrun.ResultDigest(*line.Result) != line.Digest {
			c.noteDigestMismatch(b)
			continue
		}
		c.metrics.batchItems.Add(1)
		results[line.Index] = line.Result
	}
	b.breaker.success()
	b.observe(c.cfg.now().Sub(start).Microseconds())
	return results, itemErrs, nil
}

// BatchExecutor adapts the client to internal/runner's batch seam:
// chunks of jobs with transportable configs ship as one POST /v1/batch
// per backend; everything else — untransportable payloads, and any
// item the pool cannot take — runs locally, so a sweep always
// completes.
func (c *Client) BatchExecutor() runner.BatchExecutor[core.Result] {
	return batchExecutor{executor{c}}
}

type batchExecutor struct{ executor }

func (e batchExecutor) ExecuteBatch(ctx context.Context, jobs []runner.Job[core.Result]) ([]core.Result, []error) {
	out := make([]core.Result, len(jobs))
	errs := make([]error, len(jobs))
	cfgs := make([]core.Config, 0, len(jobs))
	idxs := make([]int, 0, len(jobs))
	for i, j := range jobs {
		cfg, ok := j.Payload.(core.Config)
		if !ok || cfg.Programs != nil {
			out[i], errs[i] = j.Run(ctx)
			continue
		}
		cfgs = append(cfgs, cfg)
		idxs = append(idxs, i)
	}
	if len(cfgs) == 0 {
		return out, errs
	}
	res, rerrs := e.c.RunBatch(ctx, cfgs)
	for k, i := range idxs {
		if rerrs[k] != nil && errors.Is(rerrs[k], ErrNoBackends) {
			e.c.metrics.localFallback.Add(1)
			out[i], errs[i] = jobs[i].Run(ctx)
			continue
		}
		out[i], errs[i] = res[k], rerrs[k]
	}
	return out, errs
}
