package measure

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFanOutRunsEachTaskOnce: the work-stealing scheduler hands every
// index out exactly once, at any pool shape — including more workers
// than tasks, a single worker (the serial fast path), and the empty
// grid.
func TestFanOutRunsEachTaskOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 1}, {7, 2}, {7, 7}, {7, 32},
		{100, 3}, {1000, 8}, {1000, 0},
	} {
		counts := make([]int32, tc.n)
		err := FanOut(context.Background(), tc.n, tc.workers, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: task %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestFanOutStealsUnevenLoad: with every task but one held on a gate,
// the free workers must steal their way through the rest of the index
// space — if stealing were broken, the slow run's owner would be the
// only worker able to finish its tasks and the gated waiter would
// starve the pool.
func TestFanOutStealsUnevenLoad(t *testing.T) {
	const n, workers = 64, 4
	gate := make(chan struct{})
	var done int32
	err := FanOut(context.Background(), n, workers, func(i int) error {
		if i == 0 {
			// Task 0 (worker 0's first claim) blocks until every other
			// task has finished — which can only happen if the other
			// workers drain worker 0's remaining run by stealing.
			<-gate
			return nil
		}
		if atomic.AddInt32(&done, 1) == n-1 {
			close(gate)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFanOutStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	// Serial fast path: the error stops the walk immediately, so exactly
	// tasks 0..3 run.
	var ran int32
	err := FanOut(context.Background(), 1000, 1, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("serial err = %v, want boom", err)
	}
	if n := atomic.LoadInt32(&ran); n != 4 {
		t.Fatalf("serial ran %d tasks, want 4", n)
	}
	// Pooled path: the first error is the one reported, even when every
	// worker fails.
	err = FanOut(context.Background(), 100, 4, func(i int) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("pooled err = %v, want boom", err)
	}
}

func TestFanOutCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := FanOut(ctx, 8, workers, func(i int) error {
			return fmt.Errorf("task %d ran under a cancelled context", i)
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestFanRowsSplitPlanDeterminism: a rolling fold over a plan split
// across the pool — per-row state carried along the row with no locks,
// plus the plain per-row countdown the sweep engines spill on — matches
// a direct serial reference at every ladder width, and each row's
// countdown reaches zero exactly once, on its last task.
func TestFanRowsSplitPlanDeterminism(t *testing.T) {
	n, rows := 48, 3
	rowOf := func(i int) int { return i % rows }
	key := func(i int) int { return i / rows }
	plan := PlanRows(n, rows, rowOf, key)
	want := make([]int, n)
	for r := 0; r < rows; r++ {
		sum := 0
		for i := r; i < n; i += rows {
			sum += i
			want[i] = sum
		}
	}
	for _, workers := range []int{1, 2, 4, 16} {
		out := make([]int, n)
		states := make([]int, len(plan))
		left := make([]int, len(plan))
		fired := make([]int, len(plan))
		for r, row := range plan {
			left[r] = len(row)
		}
		if err := FanRows(context.Background(), plan, workers, func(row, task int) error {
			states[row] += task
			out[task] = states[row]
			if left[row]--; left[row] == 0 {
				fired[row]++
				if last := plan[row][len(plan[row])-1]; task != last {
					t.Errorf("workers=%d: row %d finished on task %d, want %d", workers, row, task, last)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("workers=%d: rolling fold diverged from the serial reference", workers)
		}
		for r, f := range fired {
			if f != 1 {
				t.Fatalf("workers=%d: row %d countdown fired %d times", workers, r, f)
			}
		}
	}
}

// TestFanOutSerialFastPathOrder: workers=1 must run tasks in ascending
// index order on the caller's goroutine — it is the determinism
// goldens' reference path.
func TestFanOutSerialFastPathOrder(t *testing.T) {
	var order []int
	var mu sync.Mutex
	if err := FanOut(context.Background(), 8, 1, func(i int) error {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("serial order = %v, want %v", order, want)
	}
}
