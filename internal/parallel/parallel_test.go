package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mlpa/internal/obs"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 0} {
		n := 37
		seen := make([]atomic.Int32, n)
		err := ForEach(context.Background(), workers, n, func(ctx context.Context, i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	// A nil ctx means context.Background(), for n == 0 as for any n.
	for _, ctx := range []context.Context{context.Background(), nil} {
		if err := ForEach(ctx, 4, 0, func(context.Context, int) error {
			t.Error("fn called for n=0")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForEachLowestIndexErrorWins: when several indices fail, ForEach
// must return the lowest-index error — the one a sequential loop would
// have surfaced — regardless of completion order or worker count.
func TestForEachLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		n := 16
		err := ForEach(context.Background(), workers, n, func(ctx context.Context, i int) error {
			switch i {
			case 3, 7, 11:
				// Later failures finish first, tempting a naive
				// first-completion policy to return the wrong error.
				time.Sleep(time.Duration(16-i) * time.Millisecond)
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom at 3" {
			t.Errorf("workers=%d: err = %v, want boom at 3", workers, err)
		}
	}
}

// TestForEachErrorStopsClaiming: after a failure, indices that were not
// yet claimed must not start.
func TestForEachErrorStopsClaiming(t *testing.T) {
	n := 1000
	var ran atomic.Int32
	err := ForEach(context.Background(), 2, n, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		// Give the scheduler time to observe the cancellation.
		time.Sleep(time.Millisecond)
		return ctx.Err()
	})
	if err == nil || err.Error() != "early failure" {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); int(got) == n {
		t.Errorf("all %d indices ran despite early failure", n)
	}
}

// TestForEachCollateralCancelFiltered: a worker that surfaces the
// internal cancellation (ctx.Err after another index failed) must not
// mask the root-cause error, even though its index is lower.
func TestForEachCollateralCancelFiltered(t *testing.T) {
	release := make(chan struct{})
	err := ForEach(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			<-release
			// By now index 1 has failed and cancelled the pool; index 0
			// reports the collateral cancellation.
			<-ctx.Done()
			return ctx.Err()
		}
		defer close(release)
		return errors.New("root cause")
	})
	if err == nil || err.Error() != "root cause" {
		t.Errorf("err = %v, want root cause", err)
	}
}

func TestForEachExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 2, 100, func(ctx context.Context, i int) error {
		if ran.Add(1) == 1 {
			cancel()
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestForEachSingleWorkerInline(t *testing.T) {
	// workers == 1 must run on the calling goroutine in index order.
	var order []int
	err := ForEach(context.Background(), 1, 5, func(ctx context.Context, i int) error {
		order = append(order, i) // data race here would fail under -race if not inline
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestForEachMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	err := ForEachOpt(context.Background(), 4, 10, func(ctx context.Context, i int) error {
		return nil
	}, ForEachOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["parallel.tasks_done"]; got != 10 {
		t.Errorf("tasks_done = %d, want 10", got)
	}
	if _, ok := snap.Gauges["parallel.workers"]; !ok {
		t.Error("parallel.workers gauge missing")
	}
}
