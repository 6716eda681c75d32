package telemetry

import (
	"sync"
	"time"
)

// dutyCycle bounds a background worker's CPU: after a run whose active
// work took d, the next run is at least dutyCycle×d away, so the worker
// stays at ≤ 1/(1+99) = 1% of one core however slow a run gets (a huge
// fleet's memory sweep, a large profile fold). The headroom matters on
// small hosts, where the workers share a core with serving.
const dutyCycle = 99

// Throttle returns the delay before a worker's next run: interval, or
// 99×work when that is longer — the one duty-cycle floor the memory
// sweeper and the profiler share.
func Throttle(interval, work time.Duration) time.Duration {
	return max(interval, work*dutyCycle)
}

// Worker runs one periodic background job on its own goroutine — the
// memory sweeper, the profiler, the auditor and the flight recorder each
// own one. The zero value is ready to Start.
type Worker struct {
	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	stopped bool
}

// Start launches job: it first runs after delay, then again after each
// delay it returns. A no-op while running and after Stop.
func (w *Worker) Start(delay time.Duration, job func() time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done != nil || w.stopped {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	w.stop, w.done = stop, done
	go func() {
		defer close(done)
		timer := time.NewTimer(delay)
		defer timer.Stop()
		for {
			select {
			case <-stop:
				return
			case <-timer.C:
				timer.Reset(job())
			}
		}
	}()
}

// Stop ends the worker and waits for a run in progress to return.
// Idempotent; a worker that never started stops at once.
func (w *Worker) Stop() {
	w.mu.Lock()
	stop, done := w.stop, w.done
	w.stop, w.stopped = nil, true
	w.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if done != nil {
		<-done
	}
}
