package main

// The serve-cold workload: the same stack in coordinator mode over two
// worker nodes reached through cluster.HTTPTransport. Two clients
// alternate ext-coopber (fixed runs: RunShards) and ext-adaptive
// (adaptive rounds: RunChunkRange) quick requests with fresh seeds, so
// every request misses, shards, and writes through to the store.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/sim"
)

const (
	coldWorkers = 2
	coldRate    = 2 // requests per --seconds second
	// coldMinOps is the fewest requests that support coldTail: p75
	// needs 40 samples to leave 10 beyond it.
	coldMinOps = 40
	coldTail   = 75
	coldSetups = 3
	// coldTraceMinOps is the fewest requests in each half of a traced
	// run.
	coldTraceMinOps = 6
)

var coldDrivers = []string{"ext-coopber", "ext-adaptive"}

// coldRequests returns n requests with seeds no other request of the
// run uses, starting at seed index first. Client c of two sends
// requests c, c+2, ...; shifting the driver by the round makes each
// client alternate drivers while the two clients run different ones.
func coldRequests(seed int64, first, n int) []service.Request {
	base := derive(seed, "serve-cold")
	reqs := make([]service.Request, n)
	for i := range reqs {
		driver := coldDrivers[(i+i/serveClients)%len(coldDrivers)]
		reqs[i] = service.Request{ID: driver, Seed: base + int64(first+i), Quick: true}
	}
	return reqs
}

// coldCounters are the program's own counters a cold request moves.
var coldCounters = []string{promTrials, promShardsOK, promShardsFail, promShardsRetry, promShardsLocal}

// coldStack is a coordinator with the wrappers of a traced run.
type coldStack struct {
	c  *coordinator
	tr *timingTransport
	ex *timingExecutor
}

func runServeCold(b *bench) error {
	ops := max(coldMinOps, b.seconds*coldRate)
	reqs := coldRequests(b.seed, 1, ops) // index 0 is the warm-up request
	warmup := coldRequests(b.seed, 0, 1)[0]
	warmupReport, err := service.ExperimentRunner(context.Background(), warmup)
	if err != nil {
		return err
	}

	stackN := 0
	boot := func(traced bool) func() (*coldStack, counts, error) {
		return func() (*coldStack, counts, error) {
			stackN++
			return bootCold(b, filepath.Join(b.work, fmt.Sprintf("cold-%d", stackN)), warmup, warmupReport, traced)
		}
	}
	teardown := func(s *coldStack) error { return s.c.stop() }

	if !b.trace {
		s, err := timeSetups(b, coldSetups, boot(false), teardown)
		if err != nil {
			return err
		}
		m, err := measureCold(b, s, reqs)
		if err := s.c.stop(); err != nil {
			return err
		}
		if err != nil {
			return err
		}
		checkCold(b, reqs, m.reports)
		b.put("p50_ms", "ms", m.p50)
		b.put("alloc_mb_per_op", "MB", m.allocMB)
		b.note("rps", m.rps)
		tail, err := percentile(m.lat, coldTail)
		if err != nil {
			return err
		}
		b.note(fmt.Sprintf("p%d_ms", coldTail), tail)
		return nil
	}

	// Per-layer figures need no tail, so a traced run's halves are
	// smaller than an untraced run.
	half := reqs[:max(coldTraceMinOps, ops/4)]
	var phases [2]coldMeasure
	for i, traced := range []bool{false, true} {
		s, err := timeSetups(b, coldSetups, boot(traced), teardown)
		if err != nil {
			return err
		}
		phases[i], err = measureCold(b, s, half)
		if err := s.c.stop(); err != nil {
			return err
		}
		if err != nil {
			return err
		}
	}
	checkCold(b, half, phases[0].reports)
	for i, rep := range phases[1].reports {
		switch {
		case rep == "":
			// already counted as failed
		case rep != phases[0].reports[i]:
			b.op(fmt.Sprintf("request %d: traced report differs from the untraced one", i))
		default:
			b.op("")
		}
	}
	b.expect("traced vs untraced counts", phases[0].counts, phases[1].counts)
	// Throughput, measured with nothing attached.
	b.put("rps", "1/s", phases[0].rps)
	t := phases[1]
	jobs := float64(len(half))
	b.put("tenant.queue_wait_p50_ms", "ms", t.queueP50)
	b.put("service.run_ms", "ms", t.runP50)
	b.put("sim.executor_ms", "ms", t.executorMs/jobs)
	b.put("cluster.shard_ms", "ms", median(t.trips))
	b.put("cluster.shards_per_job", "count", float64(len(t.trips))/jobs)
	b.put("store.puts_per_job", "count", float64(t.counts["store_puts"])/jobs)
	b.put("store.kb_per_job", "kB", t.storeBytes/1024/jobs)
	b.put("bench.trace_overhead_pct", "%", 100*(phases[0].rps/t.rps-1))
	if int64(len(t.trips)) != t.counts["shards_ok"] {
		b.trip("timing transport saw %d shard round trips, the program counted %d", len(t.trips), t.counts["shards_ok"])
	}
	if t.failedTrips != 0 {
		b.trip("%d shard attempts failed, want 0", t.failedTrips)
	}
	if t.hitRatio != 0 {
		b.trip("serve-cold cache hit ratio %g, want 0", t.hitRatio)
	}
	return nil
}

// bootCold starts the coordinator stack and sends the warm-up request,
// a cold miss like every measured one, whose local report is want.
func bootCold(b *bench, dir string, warmup service.Request, want string, traced bool) (*coldStack, counts, error) {
	s := &coldStack{}
	var wrapT func(cluster.Transport) cluster.Transport
	var wrapE func(sim.Executor) sim.Executor
	if traced {
		wrapT = func(inner cluster.Transport) cluster.Transport {
			s.tr = &timingTransport{inner: inner}
			return s.tr
		}
		wrapE = func(inner sim.Executor) sim.Executor {
			s.ex = newTimingExecutor(inner)
			return s.ex
		}
	}
	c, err := startCoordinator(dir, coldWorkers, wrapT, wrapE)
	if err != nil {
		return nil, nil, err
	}
	s.c = c
	before, err := promCounters(coldCounters...)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	cl := newClient(c.addr)
	defer cl.close()
	jr, _, err := cl.submit(warmup)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	b.op(checkJob(jr.Report, want, jr.State, jr.CacheHit, false))
	after, err := promCounters(coldCounters...)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	if traced {
		s.tr.take()
		s.ex.take()
	}
	return s, promDelta(before, after), nil
}

// promDelta names the cold counters' movement between two readings.
func promDelta(before, after map[string]int64) counts {
	return counts{
		"trials":         after[promTrials] - before[promTrials],
		"shards_ok":      after[promShardsOK] - before[promShardsOK],
		"shards_failed":  after[promShardsFail] - before[promShardsFail],
		"shards_retried": after[promShardsRetry] - before[promShardsRetry],
		"shards_local":   after[promShardsLocal] - before[promShardsLocal],
	}
}

type coldMeasure struct {
	reports          []string
	lat              []float64
	rps, p50         float64
	allocMB          float64
	counts           counts
	queueP50, runP50 float64
	hitRatio         float64
	storeBytes       float64
	executorMs       float64
	trips            []float64
	failedTrips      int64
}

// measureCold drives reqs from two clients. Reports are checked
// against local runs afterwards, outside the measured window.
func measureCold(b *bench, s *coldStack, reqs []service.Request) (coldMeasure, error) {
	var m coldMeasure
	cls, err := openClients(s.c.addr, serveClients)
	if err != nil {
		return m, err
	}
	defer closeClients(cls)
	runtime.GC()
	st0, sst0 := s.c.svc.Stats(), s.c.st.Stats()
	before, err := promCounters(coldCounters...)
	if err != nil {
		return m, err
	}
	h0 := readHeap(false)
	start := time.Now()
	samples, errs := drive(cls, reqs)
	wall := time.Since(start)
	h := readHeap(false).sub(h0)
	after, err := promCounters(coldCounters...)
	if err != nil {
		return m, err
	}
	st, sst := s.c.svc.Stats(), s.c.st.Stats()

	var lat, queue, run []float64
	m.reports = make([]string, len(reqs))
	for i, smp := range samples {
		if errs[i] != nil {
			b.op(errs[i].Error())
			continue
		}
		if smp.job.State != service.StateDone || smp.job.CacheHit {
			b.op(fmt.Sprintf("request %d: job ended %s, cached=%t", i, smp.job.State, smp.job.CacheHit))
			continue
		}
		m.reports[i] = smp.job.Report
		lat = append(lat, ms(smp.lat))
		queue = append(queue, smp.queueMs())
		run = append(run, smp.runMs())
	}
	m.rps = float64(len(reqs)) / wall.Seconds()
	m.lat = lat
	m.p50 = median(lat)
	m.allocMB = float64(h.allocBytes) / 1e6 / float64(len(reqs))
	m.counts = promDelta(before, after)
	m.counts["cache_hits"] = st.CacheHits - st0.CacheHits
	m.counts["cache_misses"] = st.CacheMisses - st0.CacheMisses
	m.counts["store_puts"] = sst.Puts - sst0.Puts
	b.note(phaseKey("request_counts", s.tr != nil), m.counts.String())
	if m.counts["cache_misses"] != int64(len(reqs)) || m.counts["store_puts"] != int64(len(reqs)) {
		b.trip("%d requests made %d cache misses and %d store puts, want one each",
			len(reqs), m.counts["cache_misses"], m.counts["store_puts"])
	}
	if s.tr == nil {
		return m, nil
	}
	m.queueP50 = median(queue)
	m.runP50 = median(run)
	m.hitRatio = float64(m.counts["cache_hits"]) / float64(m.counts["cache_hits"]+m.counts["cache_misses"])
	m.storeBytes = float64(sst.Bytes - sst0.Bytes)
	for _, kt := range s.ex.take() {
		m.executorMs += ms(kt.Busy)
	}
	m.trips, m.failedTrips = s.tr.take()
	return m, nil
}

// checkCold compares every served report with an un-sharded local run
// of the same request, counting a mismatch as a failed op.
func checkCold(b *bench, reqs []service.Request, reports []string) {
	for i, req := range reqs {
		if reports[i] == "" {
			continue // already counted as failed
		}
		local, err := service.ExperimentRunner(context.Background(), req)
		if err != nil {
			b.op(fmt.Sprintf("request %d: local run: %v", i, err))
			continue
		}
		if local != reports[i] {
			b.op(fmt.Sprintf("request %d (%s seed %d): sharded report differs from the local run", i, req.ID, req.Seed))
			continue
		}
		b.op("")
	}
}
