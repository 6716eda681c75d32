package telemetry

import (
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingAgainstModel drives rings of several capacities (1 included)
// with random adds and checks every observable against a plain slice
// that keeps the last cap values.
func TestRingAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, capacity := range []int{1, 2, 3, 7, 16} {
		r := NewRing(make([]int, capacity))
		var model []int
		added := 0
		for step := 0; step < 200; step++ {
			v := rng.IntN(1000)
			r.Add(v)
			added++
			model = append(model, v)
			if len(model) > capacity {
				model = model[1:]
			}
			if r.Len() != len(model) {
				t.Fatalf("cap %d step %d: Len = %d, want %d", capacity, step, r.Len(), len(model))
			}
			if got, ok := r.Newest(); !ok || got != model[len(model)-1] {
				t.Fatalf("cap %d step %d: Newest = %d,%v, want %d", capacity, step, got, ok, model[len(model)-1])
			}
			if got := r.AppendTo([]int{-1}); !slices.Equal(got[1:], model) || got[0] != -1 {
				t.Fatalf("cap %d step %d: AppendTo = %v, want [-1] + %v", capacity, step, got, model)
			}
			if want := added > capacity; r.Overwritten() != want {
				t.Fatalf("cap %d step %d: Overwritten = %v after %d adds, want %v", capacity, step, r.Overwritten(), added, want)
			}
		}
	}
	var empty Ring[int]
	if _, ok := empty.Newest(); ok || empty.Len() != 0 || len(empty.AppendTo(nil)) != 0 || empty.Overwritten() {
		t.Fatal("zero ring should read as empty")
	}
}

func TestSampleMask(t *testing.T) {
	for _, c := range []struct {
		rate int
		mask uint32
	}{{0, 0}, {1, 0}, {2, 1}, {3, 3}, {32, 31}, {33, 63}, {64, 63}} {
		if got := SampleMask(c.rate); got != c.mask {
			t.Errorf("SampleMask(%d) = %d, want %d", c.rate, got, c.mask)
		}
	}
}

// TestWorkerRunsStopsAndWaits: the job runs again after the delay it
// returns, Stop waits for a run in progress, and neither a second Stop
// nor a Start after Stop revives the worker.
func TestWorkerRunsStopsAndWaits(t *testing.T) {
	var idle Worker
	idle.Stop() // never started: returns at once

	var w Worker
	var runs atomic.Int32
	var finished atomic.Bool
	inRun, release := make(chan struct{}), make(chan struct{})
	job := func() time.Duration {
		if runs.Add(1) == 3 {
			close(inRun)
			<-release
			finished.Store(true)
		}
		return time.Millisecond
	}
	w.Start(time.Millisecond, job)
	w.Start(time.Millisecond, job) // no second goroutine
	<-inRun
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	w.Stop()
	if !finished.Load() || runs.Load() != 3 {
		t.Fatalf("Stop returned with run 3 finished=%v after %d runs", finished.Load(), runs.Load())
	}
	w.Stop()
	w.Start(time.Millisecond, job)
	time.Sleep(10 * time.Millisecond)
	if got := runs.Load(); got != 3 {
		t.Fatalf("worker ran %d times after Stop", got-3)
	}
}
