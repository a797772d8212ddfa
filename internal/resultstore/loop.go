package resultstore

import (
	"context"
	"time"
)

// maintLoop is the background lifecycle the scrubber and the replicator
// share: one job per interval, the first one interval after start (a
// daemon coming up under load should serve first, maintain later), and
// a stop that cancels a job in progress and waits for it to return.
type maintLoop struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// start launches the loop; a second start while running is a no-op.
func (l *maintLoop) start(every time.Duration, job func(context.Context)) {
	if l.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				job(ctx)
			}
		}
	}()
}

// stop cancels the loop and waits for it to exit. Safe without start,
// and more than once.
func (l *maintLoop) stop() {
	if l.cancel == nil {
		return
	}
	l.cancel()
	<-l.done
	l.cancel = nil
}

// pace is the rate limit and cancellation point between the per-entry
// steps of a maintenance job: it idles for d (d <= 0 disables the wait)
// and reports false once ctx is done.
func pace(ctx context.Context, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
