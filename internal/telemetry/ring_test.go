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
			if got, ok := r.Oldest(); !ok || got != model[0] {
				t.Fatalf("cap %d step %d: Oldest = %d,%v, want %d", capacity, step, got, ok, model[0])
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
	if _, ok := empty.Oldest(); ok {
		t.Fatal("zero ring has no oldest value")
	}
	if _, ok := empty.Newest(); ok || empty.Len() != 0 || len(empty.AppendTo(nil)) != 0 || empty.Overwritten() {
		t.Fatal("zero ring should read as empty")
	}
}

// TestRingGrow grows rings caught at every fill level and wrap offset:
// the values keep their oldest-to-newest order, the next Add lands after
// the last of them, and Overwritten is what it was (false until a value
// is displaced, true after).
func TestRingGrow(t *testing.T) {
	for capacity := 1; capacity <= 4; capacity++ {
		for adds := 0; adds <= 3*capacity; adds++ {
			r := NewRing(make([]int, capacity))
			var model []int
			for v := 0; v < adds; v++ {
				r.Add(v)
				if model = append(model, v); len(model) > capacity {
					model = model[1:]
				}
			}
			wasOverwritten := r.Overwritten()
			r.Grow(make([]int, 2*capacity))
			if r.Cap() != 2*capacity || r.Len() != len(model) || r.Overwritten() != wasOverwritten {
				t.Fatalf("cap %d after %d adds: grown to Cap %d Len %d Overwritten %v, want %d %d %v",
					capacity, adds, r.Cap(), r.Len(), r.Overwritten(), 2*capacity, len(model), wasOverwritten)
			}
			if got := r.AppendTo(nil); !slices.Equal(got, model) {
				t.Fatalf("cap %d after %d adds: grown ring holds %v, want %v", capacity, adds, got, model)
			}
			// Fill the new room: nothing is displaced, order continues.
			for v := adds; r.Len() < r.Cap(); v++ {
				r.Add(v)
				model = append(model, v)
			}
			if got := r.AppendTo(nil); !slices.Equal(got, model) || r.Overwritten() != wasOverwritten {
				t.Fatalf("cap %d after %d adds: filled grown ring holds %v (overwritten %v), want %v (%v)",
					capacity, adds, got, r.Overwritten(), model, wasOverwritten)
			}
			if newest, _ := r.Newest(); newest != model[len(model)-1] {
				t.Fatalf("cap %d after %d adds: Newest %d, want %d", capacity, adds, newest, model[len(model)-1])
			}
			r.Add(-1)
			if got := r.AppendTo(nil); !r.Overwritten() || !slices.Equal(got, append(model[1:], -1)) {
				t.Fatalf("cap %d after %d adds: the add past the grown capacity left %v", capacity, adds, got)
			}
		}
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
