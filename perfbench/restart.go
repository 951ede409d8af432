package main

// The restart workload: daemon restarts over a store snapshot built in
// set-up. The snapshot holds results for four times the LRU's capacity
// and a coop.ber campaign interrupted at a fixed chunk. Each operation
// restores the snapshot, boots the node the way cogmimod boots (store,
// service, cache warm-up, campaign resume, listener), waits for the
// campaign and reads every result back over HTTP.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

const (
	restartResults = 4 * defaultCache
	// The campaign is one coop.ber run of campaignChunks chunks,
	// checkpointed every ckptEvery chunks and interrupted once
	// resumeChunks of them are durable.
	campaignChunks = 32
	ckptEvery      = 4
	resumeChunks   = 16
	restartRate    = 1.2 // restart operations per --seconds second
	restartMinOps  = 4
	restartSetups  = 3
	restartTail    = 90
	// snapshotSubmitters keep the service's workers busy while the
	// snapshot's results are computed.
	snapshotSubmitters = 4
)

// restartInputs are what every restart operation needs: the snapshot,
// the requests stored in it, and the answers they must read back as.
type restartInputs struct {
	snap     string
	reqs     []service.Request
	reports  []string
	order    []int // read-back order: indices of reqs, newest result first
	spec     campaign.Spec
	campaign string // uninterrupted campaign report
}

func runRestart(b *bench) error {
	spec := restartSpec(b.seed)
	ref, err := uninterruptedReport(filepath.Join(b.work, "reference"), spec)
	if err != nil {
		return fmt.Errorf("uninterrupted reference campaign: %w", err)
	}
	reqs := make([]service.Request, restartResults)
	base := derive(b.seed, "restart")
	for i := range reqs {
		reqs[i] = service.Request{ID: cheapDrivers[i%len(cheapDrivers)], Seed: base + int64(i), Quick: true}
	}

	snapN := 0
	setup := func() (*restartInputs, counts, error) {
		snapN++
		in := &restartInputs{
			snap: filepath.Join(b.work, fmt.Sprintf("snapshot-%d", snapN)),
			reqs: reqs, spec: spec, campaign: ref,
		}
		if err := buildSnapshot(in); err != nil {
			return nil, nil, err
		}
		// The warm-up operation is one restart like the measured ones.
		op, err := restartOp(in, filepath.Join(b.work, "live"), false)
		if err != nil {
			return nil, nil, err
		}
		b.op(op.complaint)
		return in, op.counts, nil
	}
	teardown := func(in *restartInputs) error { return os.RemoveAll(in.snap) }
	in, err := timeSetups(b, restartSetups, setup, teardown)
	if err != nil {
		return err
	}
	b.note("snapshot_results", len(reqs))
	b.note("campaign_chunks", fmt.Sprintf("%d of %d checkpointed", resumeChunks, campaignChunks))

	nOps := max(restartMinOps, int(float64(b.seconds)*restartRate))
	if b.trace {
		nOps = max(2, nOps/2*2)
	}
	var all []restartSample
	for i := 0; i < nOps; i++ {
		traced := b.trace && i >= nOps/2
		op, err := restartOp(in, filepath.Join(b.work, "live"), traced)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i+1, err)
		}
		b.op(op.complaint)
		if i > 0 {
			b.expect(fmt.Sprintf("restart %d counts", i+1), all[0].counts, op.counts)
		}
		all = append(all, op)
	}
	b.note("restart_counts", all[0].counts.String())

	if !b.trace {
		var wall, alloc []float64
		for _, op := range all {
			wall = append(wall, 1000*op.wallS)
			alloc = append(alloc, op.allocMB)
		}
		b.putMedian("p50_ms", "ms", wall)
		b.putMedian("alloc_mb_per_op", "MB", alloc)
		phases, err := restartPhases(all)
		for name, m := range phases {
			b.note(name, m.Value)
		}
		return err
	}

	// The restart's parts, timed with nothing attached.
	plain, traced := all[:nOps/2], all[nOps/2:]
	phases, err := restartPhases(plain)
	if err != nil {
		return err
	}
	for name, m := range phases {
		b.put(name, m.Unit, m.Value)
	}
	var openMs, warmMs, self, plainWall, tracedWall []float64
	for _, op := range plain {
		plainWall = append(plainWall, op.wallS)
	}
	for _, op := range traced {
		tracedWall = append(tracedWall, op.wallS)
		openMs = append(openMs, op.openMs)
		warmMs = append(warmMs, op.warmMs)
		self = append(self, op.self...)
	}
	c := traced[0].counts
	b.put("store.open_ms", "ms", median(openMs))
	b.put("service.warm_ms", "ms", median(warmMs))
	b.put("service.warm_entries", "count", float64(c["warm_entries"]))
	b.put("campaign.chunks_resumed", "count", float64(c["chunks_resumed"]))
	b.put("campaign.chunks_computed", "count", float64(c["chunks_computed"]))
	b.put("campaign.checkpoints", "count", float64(c["checkpoints"]))
	lookups := c["cache_hits"] + c["cache_disk_hits"] + c["cache_misses"]
	b.put("service.disk_hit_ratio", "ratio", float64(c["cache_disk_hits"])/float64(lookups))
	b.put("httpapi.self_ms", "ms", median(self))
	b.put("bench.trace_overhead_pct", "%", 100*(median(tracedWall)/median(plainWall)-1))
	return nil
}

// restartPhases are the medians of a restart's parts — boot to
// /healthz, resume to campaign done — and the read-backs' median and
// tail.
func restartPhases(ops []restartSample) (map[string]metric, error) {
	var restart, resume, lat []float64
	for _, op := range ops {
		restart = append(restart, op.restartS)
		resume = append(resume, op.resumeS)
		lat = append(lat, op.lat...)
	}
	// The tail is p90: the read-backs of a run span a few seconds, so a
	// single stall of the shared host moves their p99 by a factor of
	// two or more between runs.
	tail, err := percentile(lat, restartTail)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"restart_s":       {Value: median(restart), Unit: "s"},
		"resume_s":        {Value: median(resume), Unit: "s"},
		"readback_p50_ms": {Value: median(lat), Unit: "ms"},
		fmt.Sprintf("readback_p%d_ms", restartTail): {Value: tail, Unit: "ms"},
	}, nil
}

// restartSpec is the campaign the snapshot interrupts.
func restartSpec(seed int64) campaign.Spec {
	return campaign.Spec{
		Name:             "perfbench-restart",
		CheckpointChunks: ckptEvery,
		Experiments: []campaign.Experiment{{
			Kernel:       "coop.ber",
			Seed:         derive(seed, "campaign"),
			KernelParams: map[string]float64{"mt": 2, "mr": 2, "snr_db": 8, "bits": 32},
			Trials:       campaignChunks * sim.ChunkSize,
		}},
	}
}

// uninterruptedReport runs spec to completion on a fresh store.
func uninterruptedReport(dir string, spec campaign.Spec) (string, error) {
	st, err := store.Open(store.Options{Dir: dir, Logger: quietLogger()})
	if err != nil {
		return "", err
	}
	defer st.Close()
	r := &campaign.Runner{Store: st, Logger: quietLogger()}
	report, _, err := r.Run(context.Background(), spec)
	return report, err
}

// buildSnapshot computes every request once through a service backed
// by a fresh store, then runs the campaign until resumeChunks chunks
// are checkpointed and interrupts it. It records the read-back order:
// newest result first, as the store lists them.
func buildSnapshot(in *restartInputs) error {
	st, err := store.Open(store.Options{Dir: in.snap, MaxBytes: defaultStoreBytes, Logger: quietLogger()})
	if err != nil {
		return err
	}
	defer st.Close()
	svc, err := service.New(service.Config{
		QueueDepth: defaultQueue, CacheEntries: defaultCache,
		Runner: service.ExperimentRunner, KnownIDs: service.KnownExperimentIDs(),
		Logger: quietLogger(), Store: st,
	})
	if err != nil {
		return err
	}
	svc.Start()
	ctx := context.Background()
	in.reports = make([]string, len(in.reqs))
	errs := make([]error, snapshotSubmitters)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(in.reqs) && errs[w] == nil; i = int(next.Add(1) - 1) {
				in.reports[i], errs[w] = computeOnce(ctx, svc, in.reqs[i])
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(append(errs, svc.Stop(ctx))...); err != nil {
		return err
	}

	index := make(map[string]int, len(in.reqs))
	for i, req := range in.reqs {
		index[string(service.CanonicalKey(req))] = i
	}
	in.order = in.order[:0]
	for _, e := range st.EntriesByKind("result") {
		i, ok := index[e.Key]
		if !ok {
			return fmt.Errorf("snapshot holds an unexpected result %s", e.Key)
		}
		in.order = append(in.order, i)
	}
	if len(in.order) != len(in.reqs) {
		return fmt.Errorf("snapshot holds %d results, want %d", len(in.order), len(in.reqs))
	}
	return interruptCampaign(st, in.spec)
}

// computeOnce submits req, waits for it and returns its report.
func computeOnce(ctx context.Context, svc *service.Service, req service.Request) (string, error) {
	jv, err := svc.Submit(req)
	if err == nil {
		jv, err = svc.Wait(ctx, jv.ID)
	}
	if err != nil {
		return "", err
	}
	report, ok := svc.Result(jv.Key)
	if jv.State != service.StateDone || !ok {
		return "", fmt.Errorf("snapshot request %s seed %d ended %s", req.ID, req.Seed, jv.State)
	}
	return report, nil
}

// interruptCampaign runs spec and cancels it while the chunk after the
// first resumeChunks is computing. Chunks are computed in checkpoint
// ranges of ckptEvery, one range at a time, and a range that sees the
// cancellation persists nothing, so the durable prefix is exactly
// resumeChunks chunks however the chunks of a range are scheduled.
func interruptCampaign(st *store.Store, spec campaign.Spec) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Each chunk ends an mc.chunk span, which logs at debug level to
	// the context's logger: counting those lines is how the benchmark
	// sees chunk progress from outside the program.
	cut := &chunkCutter{at: resumeChunks + 1, cancel: cancel}
	ctx = obs.WithLogger(ctx, slog.New(cut))
	r := &campaign.Runner{Store: st, Logger: quietLogger()}
	_, _, err := r.Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("campaign was to be interrupted, got %v after %d chunks", err, cut.seen.Load())
	}
	return nil
}

// chunkCutter is a slog.Handler that cancels once the at-th mc.chunk
// span has ended.
type chunkCutter struct {
	at     int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (h *chunkCutter) Enabled(context.Context, slog.Level) bool { return true }

func (h *chunkCutter) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "span" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key != "span" {
			return true
		}
		if a.Value.String() == "mc.chunk" && h.seen.Add(1) == h.at {
			h.cancel()
		}
		return false
	})
	return nil
}

func (h *chunkCutter) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *chunkCutter) WithGroup(string) slog.Handler      { return h }

// restartSample is one restart operation as measured.
type restartSample struct {
	complaint      string
	restartS       float64
	resumeS        float64
	wallS          float64
	allocMB        float64
	lat, self      []float64
	openMs, warmMs float64
	counts         counts
}

// restartOp restores the snapshot into dir, boots a node over it, waits
// for the resumed campaign and reads every stored result back.
func restartOp(in *restartInputs, dir string, traced bool) (restartSample, error) {
	var s restartSample
	if err := os.RemoveAll(dir); err != nil {
		return s, err
	}
	if err := copyTree(in.snap, dir); err != nil {
		return s, err
	}
	logger := quietLogger()
	runtime.GC()
	h0 := readHeap(false)
	start := time.Now()
	st, err := store.Open(store.Options{Dir: dir, MaxBytes: defaultStoreBytes, Logger: logger})
	if err != nil {
		return s, err
	}
	s.openMs = msSince(start)
	n := &node{st: st}
	defer n.stop()
	recorder := obs.NewTraceRecorder(defaultTraceBuf, 0)
	n.svc, err = service.New(service.Config{
		QueueDepth: defaultQueue, CacheEntries: defaultCache,
		Runner: service.ExperimentRunner, KnownIDs: service.KnownExperimentIDs(),
		Logger: logger, Store: st, Recorder: recorder, SlowTrace: defaultSlowTrace,
	})
	if err != nil {
		return s, err
	}
	warmStart := time.Now()
	warmed := n.svc.WarmFromStore()
	s.warmMs = msSince(warmStart)
	n.svc.Start()
	n.mgr = campaign.NewManager(st, 0, logger)
	resumeStart := time.Now()
	resumed := n.mgr.ResumeAll()
	if err := n.listen(recorder); err != nil {
		return s, err
	}
	cls, err := openClients(n.addr, serveClients)
	if err != nil {
		return s, err
	}
	defer closeClients(cls)
	s.restartS = time.Since(start).Seconds()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	status, err := n.mgr.Wait(ctx, in.spec.ID())
	if err != nil {
		return s, err
	}
	s.resumeS = time.Since(resumeStart).Seconds()
	switch {
	case resumed != 1:
		s.complaint = fmt.Sprintf("%d campaigns resumed, want 1", resumed)
	case status.Status != "done":
		s.complaint = fmt.Sprintf("resumed campaign ended %s: %s", status.Status, status.Error)
	case status.Report != in.campaign:
		s.complaint = "resumed campaign report differs from the uninterrupted run"
	}

	// Read back newest first: the newest defaultCache results are the
	// ones the warm-up loaded, so they all hit memory before any disk
	// read evicts one, and every older result is one disk read.
	st0 := n.svc.Stats()
	split := min(defaultCache, len(in.order))
	for _, part := range [][]int{in.order[:split], in.order[split:]} {
		reqs := make([]service.Request, len(part))
		for j, i := range part {
			reqs[j] = in.reqs[i]
		}
		samples, errs := drive(cls, reqs)
		for j, smp := range samples {
			complaint := ""
			if errs[j] != nil {
				complaint = errs[j].Error()
			} else {
				complaint = checkJob(smp.job.Report, in.reports[part[j]], smp.job.State, smp.job.CacheHit, true)
			}
			if complaint != "" {
				if s.complaint == "" {
					s.complaint = fmt.Sprintf("read-back of result %d: %s", part[j], complaint)
				}
				continue
			}
			s.lat = append(s.lat, ms(smp.lat))
			if traced {
				s.self = append(s.self, smp.selfMs())
			}
		}
	}
	s.wallS = time.Since(start).Seconds()
	s.allocMB = float64(readHeap(false).sub(h0).allocBytes) / 1e6
	sv := n.svc.Stats()
	s.counts = counts{
		"warm_entries":    int64(warmed),
		"cache_hits":      sv.CacheHits - st0.CacheHits,
		"cache_disk_hits": sv.CacheDiskHits - st0.CacheDiskHits,
		"cache_misses":    sv.CacheMisses - st0.CacheMisses,
	}
	if rs := status.Stats; rs != nil {
		s.counts["chunks_resumed"] = rs.ChunksResumed
		s.counts["chunks_computed"] = rs.ChunksComputed
		s.counts["checkpoints"] = rs.Checkpoints
	}
	return s, n.stop()
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("snapshot holds non-regular file %s", path)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
