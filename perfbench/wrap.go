package main

// Timing wrappers around the program's public extension points. They
// are attached only in traced runs; each delegates every call unchanged
// and records how long the call took and how much work it carried, so
// the per-layer figures come from outside the program.

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ebtable"
	"repro/internal/mathx"
	"repro/internal/sim"
)

// kernelTiming accumulates one kernel's executor activity.
type kernelTiming struct {
	Calls  int64
	Trials int64
	Busy   time.Duration // summed over calls, so concurrent calls add up
}

// timingExecutor is a sim.Executor and sim.RangeExecutor. With an inner
// executor (the cluster coordinator) it forwards both entry points to
// it; without one it computes chunks on the local pool through
// sim.MonteCarlo.RunKernelChunksCtx, the same per-chunk partials the
// default path folds. Forwarding RunChunkRange matters: an executor
// that lacked it would silently move adaptive rounds to the local pool.
type timingExecutor struct {
	inner sim.Executor

	mu       sync.Mutex
	byKernel map[string]*kernelTiming
}

var (
	_ sim.Executor      = (*timingExecutor)(nil)
	_ sim.RangeExecutor = (*timingExecutor)(nil)
)

func newTimingExecutor(inner sim.Executor) *timingExecutor {
	return &timingExecutor{inner: inner, byKernel: make(map[string]*kernelTiming)}
}

func (e *timingExecutor) RunShards(ctx context.Context, run sim.KernelRun) ([]mathx.Running, error) {
	start := time.Now()
	var parts []mathx.Running
	var err error
	if e.inner != nil {
		parts, err = e.inner.RunShards(ctx, run)
	} else {
		parts, err = sim.MonteCarlo{Seed: run.Seed}.RunKernelChunksCtx(ctx, run.Kernel, run.Params, run.Trials, 0, run.Plan().Chunks())
	}
	if err == nil {
		e.record(run, 0, run.Plan().Chunks(), time.Since(start))
	}
	return parts, err
}

func (e *timingExecutor) RunChunkRange(ctx context.Context, run sim.KernelRun, lo, hi int) ([]mathx.Running, error) {
	start := time.Now()
	var parts []mathx.Running
	var err error
	if re, ok := e.inner.(sim.RangeExecutor); ok {
		parts, err = re.RunChunkRange(ctx, run, lo, hi)
	} else {
		parts, err = sim.MonteCarlo{Seed: run.Seed}.RunKernelChunksCtx(ctx, run.Kernel, run.Params, run.Trials, lo, hi)
	}
	if err == nil {
		e.record(run, lo, hi, time.Since(start))
	}
	return parts, err
}

func (e *timingExecutor) record(run sim.KernelRun, lo, hi int, d time.Duration) {
	plan := run.Plan()
	var trials int64
	for c := lo; c < hi; c++ {
		trials += int64(plan.ChunkTrials(c))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	kt := e.byKernel[run.Kernel]
	if kt == nil {
		kt = &kernelTiming{}
		e.byKernel[run.Kernel] = kt
	}
	kt.Calls++
	kt.Trials += trials
	kt.Busy += d
}

// take returns the per-kernel totals since the last take and resets
// them.
func (e *timingExecutor) take() map[string]kernelTiming {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]kernelTiming, len(e.byKernel))
	for k, v := range e.byKernel {
		out[k] = *v
	}
	e.byKernel = make(map[string]*kernelTiming)
	return out
}

// timingTransport is a cluster.Transport that times every shard round
// trip and counts failed attempts, each of which the coordinator
// retries or reassigns.
type timingTransport struct {
	inner cluster.Transport

	mu     sync.Mutex
	trips  []float64 // successful ExecShard round trips, ms
	failed int64
}

var _ cluster.Transport = (*timingTransport)(nil)

func (t *timingTransport) ExecShard(ctx context.Context, addr string, req cluster.ShardRequest) (cluster.ShardResult, error) {
	start := time.Now()
	res, err := t.inner.ExecShard(ctx, addr, req)
	ms := msSince(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.failed++
	} else {
		t.trips = append(t.trips, ms)
	}
	return res, err
}

func (t *timingTransport) Probe(ctx context.Context, addr string) error {
	return t.inner.Probe(ctx, addr)
}

// take returns the round trips and failures since the last take.
func (t *timingTransport) take() (trips []float64, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	trips, failed = t.trips, t.failed
	t.trips, t.failed = nil, 0
	return trips, failed
}

// countingSolver is an ebtable.Solver that counts the cells Build asks
// it to solve.
type countingSolver struct {
	inner ebtable.Solver
	calls atomic.Int64
}

func (s *countingSolver) EbBar(p float64, b, mt, mr int) (float64, error) {
	s.calls.Add(1)
	return s.inner.EbBar(p, b, mt, mr)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// msSince is the time elapsed since start, in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
