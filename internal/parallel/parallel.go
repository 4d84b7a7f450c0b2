// Package parallel provides the fan-out machinery shared by the
// sampling pipeline and the experiment harness: a context-aware
// indexed worker pool with deterministic error selection, a bounded
// concurrency pool, and the cost-aware partitioner that splits a plan's
// points into chunks.
//
// The package deliberately contains no simulation policy: callers
// decide what runs per index and how results merge. Determinism is the
// design center — see docs/PARALLELISM.md for the contract.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mlpa/internal/obs"
)

// ForEachOptions tunes a ForEach run. The zero value is ready to use.
type ForEachOptions struct {
	// Metrics, when non-nil, receives scheduler telemetry:
	// gauge parallel.workers (pool size), gauge parallel.queue_depth
	// (indices not yet claimed), counter parallel.tasks_done, gauge
	// parallel.utilization (mean fraction of pool wall time spent
	// inside fn) and histogram parallel.task_seconds.
	Metrics *obs.Registry
	// Stage, when non-nil, receives live fan-out progress: the pool
	// grows the stage's total by n up front and marks one item done per
	// completed fn call, so /progress shows the run mid-flight. A nil
	// Stage (including one from a nil tracker) costs nothing.
	Stage *obs.Stage
}

// ForEach runs fn(ctx, i) for every i in [0, n) on up to workers
// goroutines (workers <= 0 selects GOMAXPROCS). Indices are claimed in
// ascending order, so callers that write results into slot i of a
// pre-sized slice get deterministic output regardless of completion
// order.
//
// Error policy: the first error cancels the context passed to the
// remaining fn calls and stops new indices from being claimed; after
// all in-flight calls drain, ForEach returns the error with the LOWEST
// index — the same error a sequential loop would have returned for any
// failure set, as long as every failing index was attempted.
// Collateral context.Canceled errors from calls aborted by that
// internal cancellation never mask the root cause. If ctx is cancelled
// from outside before any fn fails, ForEach returns ctx.Err().
//
// workers == 1 never spawns a goroutine: fn runs on the calling
// goroutine, index by index, preserving the exact semantics of a plain
// loop.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	return ForEachOpt(ctx, workers, n, fn, ForEachOptions{})
}

// ForEachOpt is ForEach with scheduler telemetry.
func ForEachOpt(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error, opt ForEachOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	reg := opt.Metrics
	reg.Gauge("parallel.workers").Set(float64(workers))
	opt.Stage.AddTotal(int64(n))

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			reg.Gauge("parallel.queue_depth").Set(float64(n - i - 1))
			if err := fn(ctx, i); err != nil {
				return err
			}
			reg.Counter("parallel.tasks_done").Inc()
			opt.Stage.Add(1)
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		bestIdx  = n // lowest failing index seen so far
		bestErr  error
		busyNS   atomic.Int64
		poolWall = time.Now() //mlpalint:allow time-now (scheduler telemetry, not simulated state)
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		// A fn aborted by our own cancellation is collateral damage of
		// the true first error; never let it win error selection.
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			return
		}
		mu.Lock()
		if i < bestIdx {
			bestIdx, bestErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || wctx.Err() != nil {
					return
				}
				reg.Gauge("parallel.queue_depth").Set(float64(max(n-i-1, 0)))
				t0 := time.Now() //mlpalint:allow time-now (scheduler telemetry, not simulated state)
				err := fn(wctx, i)
				d := time.Since(t0)
				busyNS.Add(d.Nanoseconds())
				reg.Histogram("parallel.task_seconds").Observe(d.Seconds())
				if err != nil {
					record(i, err)
					return
				}
				reg.Counter("parallel.tasks_done").Inc()
				opt.Stage.Add(1)
			}
		}()
	}
	wg.Wait()
	if wall := time.Since(poolWall); wall > 0 {
		reg.Gauge("parallel.utilization").Set(
			float64(busyNS.Load()) / float64(wall.Nanoseconds()) / float64(workers))
	}
	if bestErr != nil {
		return bestErr
	}
	return ctx.Err()
}
