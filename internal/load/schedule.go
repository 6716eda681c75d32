// Package load is the open-loop, coordinated-omission-safe load
// harness. Every benchmark the repo had before this package is
// closed-loop: the next operation is issued only after the previous one
// returns, so when the server stalls, the generator politely stops
// generating — queueing delay that real, independent riders would have
// experienced is silently omitted from the recorded latencies
// (Gil Tene's "coordinated omission"). This package fixes that by
// construction:
//
//   - Arrivals follow a fixed schedule (constant or Poisson) computed
//     before the run starts. The schedule never reacts to server
//     behavior — that is what "open loop" means.
//   - Latency is measured from each operation's *intended* send time,
//     not from when the generator actually got around to sending it. A
//     stalled server therefore shows up as the queueing delay it
//     actually caused.
//   - A closed-loop mode exists purely as the control arm: tests
//     demonstrate that it hides an injected stall while the open-loop
//     run exposes it.
//
// The runner drives either the engine in-process (EngineTarget) or the
// HTTP server (HTTPTarget) with a configurable search/book/create/
// track/cancel mix drawn from an internal/workload trip stream, records
// into the repo's standard log-bucket telemetry.Histogram, and Sweep
// walks a rate ladder to produce the throughput/latency/memory frontier
// recorded in BENCH_scale.json.
package load

import (
	"fmt"
	"math/rand"
	"time"
)

// Schedule is a precomputed open-loop arrival plan: Len() intended send
// offsets from run start, non-decreasing, independent of how the system
// under test behaves.
type Schedule interface {
	// Len is the number of arrivals.
	Len() int
	// At returns the i-th intended send offset from run start.
	At(i int) time.Duration
	// OfferedRate is the nominal offered rate in ops/second.
	OfferedRate() float64
}

// offsets is the shared Schedule backing: a sorted slice of arrival
// offsets.
type offsets struct {
	ts   []time.Duration
	rate float64
}

func (o offsets) Len() int               { return len(o.ts) }
func (o offsets) At(i int) time.Duration { return o.ts[i] }
func (o offsets) OfferedRate() float64   { return o.rate }

// Constant returns n arrivals at exactly rate ops/second: the i-th
// arrival at i/rate. Deterministic and maximally regular — the pure
// throughput probe.
func Constant(rate float64, n int) Schedule {
	if rate <= 0 || n <= 0 {
		panic(fmt.Sprintf("load: Constant needs rate > 0 and n > 0, got %v, %d", rate, n))
	}
	ts := make([]time.Duration, n)
	for i := range ts {
		ts[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return offsets{ts: ts, rate: rate}
}

// Poisson returns n arrivals of a homogeneous Poisson process at the
// given mean rate: i.i.d. exponential inter-arrival gaps, deterministic
// per seed. This is the honest model of independent riders — bursts and
// lulls included — and the default arrival process for the frontier.
func Poisson(rate float64, n int, seed int64) Schedule {
	if rate <= 0 || n <= 0 {
		panic(fmt.Sprintf("load: Poisson needs rate > 0 and n > 0, got %v, %d", rate, n))
	}
	rng := rand.New(rand.NewSource(seed))
	ts := make([]time.Duration, n)
	t := 0.0
	for i := range ts {
		// Inverse-CDF exponential sampling; ExpFloat64 has mean 1.
		t += rng.ExpFloat64() / rate
		ts[i] = time.Duration(t * float64(time.Second))
	}
	return offsets{ts: ts, rate: rate}
}
