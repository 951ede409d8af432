package main

// The serve-warm workload: the daemon stack at cogmimod defaults,
// pre-warmed with quick results of cheap drivers, then one keep-alive
// client asking for those results. Only the read side of the cache
// runs: httpapi → tenant queue → service cache, no kernel compute. The
// node has no store, as cogmimod without -data-dir: a store would add
// nothing to the measured hits and its fsyncs, whose latency on a
// shared disk varies many times over, would set setup_s.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/service"
)

const (
	warmKeys = 64   // distinct results, well under the 256-entry LRU
	warmRate = 5000 // requests per --seconds second
	// serveClients is how many clients the cold and restart workloads
	// run. serve-warm runs warmClients: its hits take a fraction of a
	// millisecond, so a second client would compete with the server
	// for the two cores and its latency would measure how the
	// scheduler interleaves the two as much as the read path. Over
	// eight seeds a run's p50 spread 0.063 of the median with one
	// client and 0.09 to 0.19 with two.
	serveClients  = 2
	warmClients   = 1
	warmMinOps    = 2000
	warmMaxOpsCap = 1 << 20
	// warmSetups: a set-up takes a few tens of milliseconds, so
	// fifteen of them cost little and steady the median.
	warmSetups = 15
	// warmSegments is how many times a run reconnects its clients.
	warmSegments = 10
)

// cheapDrivers answer a quick request in well under a millisecond.
var cheapDrivers = []string{"fig6a", "fig6b", "fig7", "fig8", "table1", "ext-roc", "ext-game", "ext-lifetime", "ext-conv"}

// warmStack is a pre-warmed node and the reports it was warmed with.
type warmStack struct {
	n       *node
	reports []string
}

func runServeWarm(b *bench) error {
	keys := make([]service.Request, warmKeys)
	base := derive(b.seed, "serve-warm")
	for i := range keys {
		keys[i] = service.Request{ID: cheapDrivers[i%len(cheapDrivers)], Seed: base + int64(i), Quick: true}
	}
	ops := min(max(warmMinOps, b.seconds*warmRate), warmMaxOpsCap) / 2 * 2
	reqs := make([]service.Request, ops)
	for i := range reqs {
		reqs[i] = keys[i%warmKeys]
	}

	setup := func() (*warmStack, counts, error) { return bootWarm(b, keys) }
	teardown := func(s *warmStack) error { return s.n.stop() }

	if !b.trace {
		s, err := timeSetups(b, warmSetups, setup, teardown)
		if err != nil {
			return err
		}
		defer s.n.stop()
		m, err := measureWarm(b, s, reqs, false)
		if err != nil {
			return err
		}
		b.put("p50_ms", "ms", m.p50)
		b.put("alloc_mb_per_op", "MB", m.allocMB)
		b.note("rps", m.rps)
		b.note("p99_ms", m.p99)
		return nil
	}

	// Traced run: the same requests against a fresh untraced stack and
	// then a fresh traced one; answers and counts must agree.
	var phases [2]warmMeasure
	var prewarmed [2][]string
	for i, traced := range []bool{false, true} {
		s, err := timeSetups(b, warmSetups, setup, teardown)
		if err != nil {
			return err
		}
		prewarmed[i] = s.reports
		phases[i], err = measureWarm(b, s, reqs[:ops/2], traced)
		if err := s.n.stop(); err != nil {
			return err
		}
		if err != nil {
			return err
		}
	}
	b.expect("traced vs untraced counts", phases[0].counts, phases[1].counts)
	for i := range keys {
		if prewarmed[1][i] != prewarmed[0][i] {
			b.trip("key %d: traced stack computed a different report", i)
		}
	}
	// Throughput and tail, measured with nothing attached.
	b.put("rps", "1/s", phases[0].rps)
	b.put("p99_ms", "ms", phases[0].p99)
	t := phases[1]
	b.put("httpapi.self_ms", "ms", t.selfP50)
	b.put("tenant.queue_wait_p50_ms", "ms", t.queueP50)
	b.put("tenant.queue_wait_p99_ms", "ms", t.queueP99)
	b.put("service.run_ms", "ms", t.runP50)
	b.put("runtime.gc_cycles_per_kop", "count", t.gcPerKop)
	b.put("runtime.gc_pause_ms_per_kop", "ms", t.pausePerKop)
	b.put("bench.trace_overhead_pct", "%", 100*(phases[0].rps/t.rps-1))
	if t.hitRatio != 1 {
		b.trip("serve-warm cache hit ratio %g, want 1", t.hitRatio)
	}
	return nil
}

// bootWarm starts a node, computes every key once through the HTTP API
// and sends the warm-up request (the first key, a hit).
func bootWarm(b *bench, keys []service.Request) (*warmStack, counts, error) {
	n, err := startNode(nodeConfig{})
	if err != nil {
		return nil, nil, err
	}
	s := &warmStack{n: n}
	cls, err := openClients(n.addr, warmClients)
	if err != nil {
		n.stop()
		return nil, nil, err
	}
	defer closeClients(cls)
	samples, errs := drive(cls, keys)
	if err := errors.Join(errs...); err != nil {
		n.stop()
		return nil, nil, err
	}
	for _, smp := range samples {
		s.reports = append(s.reports, smp.job.Report)
	}
	jr, _, err := cls[0].submit(keys[0])
	if err != nil {
		n.stop()
		return nil, nil, err
	}
	b.op(checkJob(jr.Report, s.reports[0], jr.State, jr.CacheHit, true))
	st := n.svc.Stats()
	return s, counts{"cache_hits": st.CacheHits, "cache_misses": st.CacheMisses}, nil
}

// checkJob describes what is wrong with a finished job, or "".
func checkJob(report, want string, state service.State, cached, wantCached bool) string {
	switch {
	case state != service.StateDone:
		return fmt.Sprintf("job ended %s", state)
	case cached != wantCached:
		return fmt.Sprintf("job cached=%t, want %t", cached, wantCached)
	case report != want:
		return "report differs from the expected report"
	}
	return ""
}

type warmMeasure struct {
	rps, p50, p99, allocMB float64
	counts                 counts

	// Traced phase only.
	selfP50, queueP50, queueP99, runP50 float64
	hitRatio, gcPerKop, pausePerKop     float64
}

// measureWarm drives reqs (request i asks for key i mod warmKeys) from
// one client and checks every answer.
func measureWarm(b *bench, s *warmStack, reqs []service.Request, traced bool) (warmMeasure, error) {
	var m warmMeasure
	runtime.GC()
	st0 := s.n.svc.Stats()
	h0 := readHeap(traced)
	// The requests run in segments, each from freshly connected
	// clients: where the scheduler happens to place a connection's
	// goroutines sets its latency for as long as it lives, so one pair
	// of connections per run would make the run's figures one draw.
	var samples []sample
	var errs []error
	var wall time.Duration
	seg := (len(reqs) + warmSegments - 1) / warmSegments
	for lo := 0; lo < len(reqs); lo += seg {
		part := reqs[lo:min(lo+seg, len(reqs))]
		cls, err := openClients(s.n.addr, warmClients)
		if err != nil {
			return m, err
		}
		start := time.Now()
		smp, errsPart := drive(cls, part)
		wall += time.Since(start)
		closeClients(cls)
		samples, errs = append(samples, smp...), append(errs, errsPart...)
	}
	h := readHeap(traced).sub(h0)
	st := s.n.svc.Stats()

	lat := make([]float64, 0, len(samples))
	for i, smp := range samples {
		if errs[i] != nil {
			b.op(errs[i].Error())
			continue
		}
		b.op(checkJob(smp.job.Report, s.reports[i%warmKeys], smp.job.State, smp.job.CacheHit, true))
		lat = append(lat, ms(smp.lat))
	}
	m.rps = float64(len(reqs)) / wall.Seconds()
	m.p50 = median(lat)
	var err error
	if m.p99, err = percentile(lat, 99); err != nil {
		return m, err
	}
	m.allocMB = float64(h.allocBytes) / 1e6 / float64(len(reqs))
	m.counts = counts{
		"cache_hits":      st.CacheHits - st0.CacheHits,
		"cache_misses":    st.CacheMisses - st0.CacheMisses,
		"cache_disk_hits": st.CacheDiskHits - st0.CacheDiskHits,
	}
	b.expect("serve-warm request counts", counts{
		"cache_hits": int64(len(reqs)), "cache_misses": 0, "cache_disk_hits": 0,
	}, m.counts)
	b.note(phaseKey("requests", traced), len(reqs))
	if !traced {
		return m, nil
	}

	var self, queue, run []float64
	for i, smp := range samples {
		if errs[i] == nil {
			self = append(self, smp.selfMs())
			queue = append(queue, smp.queueMs())
			run = append(run, smp.runMs())
		}
	}
	m.selfP50 = median(self)
	m.queueP50 = median(queue)
	if m.queueP99, err = percentile(queue, 99); err != nil {
		return m, err
	}
	m.runP50 = median(run)
	lookups := m.counts["cache_hits"] + m.counts["cache_misses"]
	m.hitRatio = float64(m.counts["cache_hits"]) / float64(lookups)
	kops := float64(len(reqs)) / 1000
	m.gcPerKop = float64(h.gcCycles) / kops
	m.pausePerKop = float64(h.pauseNs) / 1e6 / kops
	return m, nil
}

// phaseKey labels a detail value with the phase of a traced run.
func phaseKey(key string, traced bool) string {
	if traced {
		return key + "_traced"
	}
	return key
}
