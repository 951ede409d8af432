package main

// The reproduce workload: the researcher's path, in-process. One pass is
// the paper's "Preprocessing" step — a Monte-Carlo ēb table over
// DefaultGrid with a fresh solver, as `ebtable -build -solver mc` does —
// followed by every registered driver in quick mode, as `cogsim` does.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/channel"
	"repro/internal/ebtable"
	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/modulation"
	"repro/internal/sim"
	"repro/internal/stbc"
)

const (
	// ebSamples sizes one MC table build to a few seconds on two cores.
	ebSamples = 2000
	// ebRelTol is the relative error against ebtable.Analytic that the
	// package's own MC table test allows (TestBuildWithMonteCarloSolver).
	ebRelTol = 0.15
	// goldenSeed is the seed the committed golden reports were made at.
	goldenSeed = 1
	// secondsPerPass sizes the fixed number of passes to --seconds.
	secondsPerPass = 5
	// reproduceSetups is how many golden sweeps set-up times.
	reproduceSetups = 3
)

// namedDrivers get a per-layer time of their own; the other drivers are
// summed into experiments.rest_s.
var namedDrivers = []string{"ext-cellfree", "ext-coopber", "ext-adaptive", "ext-cycle", "table4", "ext-multihop"}

// namedKernels are the registered kernels the drivers run; each gets a
// trials-per-second figure in the traced run.
var namedKernels = []string{"coop.ber", "coop.ber.adaptive", "cellfree.se", "cellfree.se.mmse"}

// reproPass is what one pass produced and cost.
type reproPass struct {
	table     *ebtable.Table
	reports   []string
	ebS, drvS float64
	allocB    uint64
	counts    counts

	// Traced passes only.
	drawS, solveS float64
	ebAllocs      uint64
	perDriver     []float64
	kernels       map[string]kernelTiming
}

func runReproduce(b *bench) error {
	ctx := context.Background()
	ids := experiments.IDs()
	golden, err := loadGoldens(b.root, ids)
	if err != nil {
		return err
	}
	analytic, err := ebtable.Build(ebtable.Analytic{}, ebtable.DefaultGrid())
	if err != nil {
		return err
	}

	// Set-up: the warm-up operation is a quick sweep at the golden seed,
	// checked byte for byte against the committed goldens.
	_, err = timeSetups(b, reproduceSetups, func() (struct{}, counts, error) {
		before, err := promCounters(promTrials)
		if err != nil {
			return struct{}{}, nil, err
		}
		reports, _, err := sweep(ctx, ids, goldenSeed, nil)
		if err != nil {
			return struct{}{}, nil, err
		}
		b.op(diffReports(ids, golden, reports, "golden"))
		after, err := promCounters(promTrials)
		if err != nil {
			return struct{}{}, nil, err
		}
		return struct{}{}, counts{"trials": after[promTrials] - before[promTrials]}, nil
	}, func(struct{}) error { return nil })
	if err != nil {
		return err
	}

	passes := max(3, (b.seconds+secondsPerPass/2)/secondsPerPass)
	if b.trace {
		passes = max(2, passes/2*2) // equal untraced and traced halves
	}
	mcSeed := derive(b.seed, "ebtable")
	var all []reproPass
	for i := 0; i < passes; i++ {
		traced := b.trace && i >= passes/2
		p, err := reproducePass(ctx, ids, b.seed, mcSeed, traced)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i+1, err)
		}
		if i == 0 {
			b.op(checkTable(p.table, analytic))
			if b.seed == goldenSeed {
				b.op(diffReports(ids, golden, p.reports, "golden"))
			} else {
				b.op("")
			}
		} else {
			ref := all[0]
			b.op(diffTables(ref.table, p.table))
			b.op(diffReports(ids, ref.reports, p.reports, "pass 1"))
			b.expect(fmt.Sprintf("pass %d counts", i+1), ref.counts, p.counts)
		}
		all = append(all, p)
	}
	b.note("passes", len(all))
	b.note("pass_counts", all[0].counts.String())

	if !b.trace {
		var pass, eb, drv, alloc []float64
		for _, p := range all {
			pass = append(pass, 1000*(p.ebS+p.drvS))
			eb = append(eb, p.ebS)
			drv = append(drv, p.drvS)
			alloc = append(alloc, float64(p.allocB)/1e6)
		}
		b.putMedian("p50_ms", "ms", pass)
		b.putMedian("alloc_mb_per_op", "MB", alloc)
		b.note("ebtable_s", eb)
		b.note("drivers_s", drv)
		return nil
	}
	return reportReproduceLayers(b, all[:passes/2], all[passes/2:], ids)
}

// reportReproduceLayers puts the traced run's per-layer figures.
func reportReproduceLayers(b *bench, plain, traced []reproPass, ids []string) error {
	var draw, solve, allocs, kernelS, plainEb, plainDrv, plainWall, tracedWall []float64
	perDriver := make([][]float64, len(ids))
	trials := make(map[string]int64)
	busy := make(map[string]time.Duration)
	for _, p := range plain {
		plainEb = append(plainEb, p.ebS)
		plainDrv = append(plainDrv, p.drvS)
		plainWall = append(plainWall, p.ebS+p.drvS)
	}
	// The pass's two parts, timed with nothing attached.
	b.put("ebtable_s", "s", median(plainEb))
	b.put("drivers_s", "s", median(plainDrv))
	for _, p := range traced {
		tracedWall = append(tracedWall, p.ebS+p.drvS)
		draw = append(draw, p.drawS)
		solve = append(solve, p.solveS)
		allocs = append(allocs, float64(p.ebAllocs))
		for i, s := range p.perDriver {
			perDriver[i] = append(perDriver[i], s)
		}
		var k time.Duration
		for name, kt := range p.kernels {
			k += kt.Busy
			trials[name] += kt.Trials
			busy[name] += kt.Busy
		}
		kernelS = append(kernelS, k.Seconds())
		// The executor must have seen every trial the program counted.
		var seen int64
		for _, kt := range p.kernels {
			seen += kt.Trials
		}
		if seen != p.counts["trials"] {
			b.trip("timing executor saw %d trials, the program counted %d", seen, p.counts["trials"])
		}
	}
	b.put("ebtable.draw_s", "s", median(draw))
	b.put("ebtable.solve_s", "s", median(solve))
	b.put("ebtable.allocs", "count", median(allocs))

	named := make(map[string]bool)
	for _, id := range namedDrivers {
		named[id] = true
	}
	rest := make([]float64, len(traced))
	for i, id := range ids {
		if named[id] {
			b.put("experiments."+id+"_s", "s", median(perDriver[i]))
			continue
		}
		for j, s := range perDriver[i] {
			rest[j] += s
		}
	}
	for _, id := range namedDrivers {
		if _, ok := b.metrics["experiments."+id+"_s"]; !ok {
			return fmt.Errorf("driver %s is not registered", id)
		}
	}
	b.put("experiments.rest_s", "s", median(rest))

	b.put("sim.kernel_s", "s", median(kernelS))
	for _, k := range namedKernels {
		if busy[k] <= 0 {
			b.trip("kernel %s never reached the executor", k)
			b.put("sim."+k+".trials_per_s", "1/s", 0)
			continue
		}
		b.put("sim."+k+".trials_per_s", "1/s", float64(trials[k])/busy[k].Seconds())
	}
	b.note("kernels_seen", sortedKeys(trials))

	b.put("modulation.berawgn_ns", "ns", berawgnNs())
	for name, ns := range stageCosts() {
		b.put(name, "ns", ns)
	}
	b.put("bench.trace_overhead_pct", "%", 100*(median(tracedWall)/median(plainWall)-1))
	return nil
}

// reproducePass runs one MC ēb table build and one quick sweep.
func reproducePass(ctx context.Context, ids []string, seed, mcSeed int64, traced bool) (reproPass, error) {
	var p reproPass
	runtime.GC()
	h0 := readHeap(false)
	grid := ebtable.DefaultGrid()
	mc := &ebtable.MonteCarlo{Samples: ebSamples, Seed: mcSeed}
	start := time.Now()
	var solver ebtable.Solver = mc
	var cs *countingSolver
	if traced {
		// The first BER call per antenna pair samples ‖H‖²; later calls
		// reuse the samples. Making those calls up front splits the
		// build into its draw and solve parts without changing a value.
		for _, mt := range grid.Mts {
			for _, mr := range grid.Mrs {
				mc.BER(1, mt, mr, 1e-20)
			}
		}
		p.drawS = time.Since(start).Seconds()
		cs = &countingSolver{inner: mc}
		solver = cs
	}
	solveStart := time.Now()
	tab, err := ebtable.Build(solver, grid)
	if err != nil {
		return p, err
	}
	p.ebS = time.Since(start).Seconds()
	p.table = tab
	if traced {
		p.solveS = time.Since(solveStart).Seconds()
		p.ebAllocs = readHeap(false).sub(h0).allocObjects
		if got := cs.calls.Load(); got != int64(tab.Len()) {
			return p, fmt.Errorf("solver was asked for %d cells, table holds %d", got, tab.Len())
		}
	}

	before, err := promCounters(promTrials)
	if err != nil {
		return p, err
	}
	var ex *timingExecutor
	if traced {
		ex = newTimingExecutor(nil)
	}
	drvStart := time.Now()
	p.reports, p.perDriver, err = sweep(ctx, ids, seed, ex)
	if err != nil {
		return p, err
	}
	p.drvS = time.Since(drvStart).Seconds()
	after, err := promCounters(promTrials)
	if err != nil {
		return p, err
	}
	p.allocB = readHeap(false).sub(h0).allocBytes
	p.counts = counts{"ebtable_cells": int64(tab.Len()), "trials": after[promTrials] - before[promTrials]}
	if ex != nil {
		p.kernels = ex.take()
	}
	return p, nil
}

// sweep runs every driver in quick mode, optionally under a timing
// executor, and returns the rendered reports and per-driver seconds.
func sweep(ctx context.Context, ids []string, seed int64, ex *timingExecutor) ([]string, []float64, error) {
	if ex != nil {
		ctx = sim.WithExecutor(ctx, ex)
	}
	reports := make([]string, len(ids))
	secs := make([]float64, len(ids))
	for i, id := range ids {
		start := time.Now()
		rep, err := experiments.RunCtx(ctx, id, experiments.Options{Seed: seed, Quick: true})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", id, err)
		}
		secs[i] = time.Since(start).Seconds()
		reports[i] = rep.String()
	}
	return reports, secs, nil
}

// loadGoldens reads the committed quick-mode golden report of every
// driver.
func loadGoldens(root string, ids []string) ([]string, error) {
	out := make([]string, len(ids))
	for i, id := range ids {
		b, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden", id+"_quick_seed1.txt"))
		if err != nil {
			return nil, fmt.Errorf("golden report: %w", err)
		}
		out[i] = string(b)
	}
	return out, nil
}

// diffReports names the first driver whose report differs, or "".
func diffReports(ids, want, got []string, against string) string {
	for i, id := range ids {
		if want[i] != got[i] {
			return fmt.Sprintf("%s report differs from the %s report", id, against)
		}
	}
	return ""
}

// diffTables names the first cell two table builds disagree on, or "".
func diffTables(want, got *ebtable.Table) string {
	if want.Len() != got.Len() {
		return fmt.Sprintf("ēb table has %d cells, want %d", got.Len(), want.Len())
	}
	for k, v := range want.Vals {
		if w, ok := got.Vals[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			return fmt.Sprintf("ēb cell %+v is %g, want %g", k, w, v)
		}
	}
	return ""
}

// checkTable compares an MC table with the analytic one on the cells
// ebSamples channel draws resolve: BER targets of at least 0.05, or
// links of diversity mt·mr of at least 4. Below both, a few thousand
// draws see too few deep fades for the package's tolerance to apply;
// those cells are still checked for determinism across passes.
func checkTable(mc, analytic *ebtable.Table) string {
	if mc.Len() != analytic.Len() {
		return fmt.Sprintf("MC ēb table has %d cells, analytic %d", mc.Len(), analytic.Len())
	}
	for k, want := range analytic.Vals {
		got, ok := mc.Vals[k]
		if !ok {
			return fmt.Sprintf("MC ēb table lacks cell %+v", k)
		}
		if mc.Grid.Ps[k.PIdx] < 0.05 && k.Mt*k.Mr < 4 {
			continue
		}
		if rel := math.Abs(got/want - 1); rel > ebRelTol {
			return fmt.Sprintf("MC ēb cell %+v is %g, analytic %g: relative error %.3f over %.2f", k, got, want, rel, ebRelTol)
		}
	}
	return ""
}

// berawgnNs times modulation.BERAWGN over a fixed spread of
// constellations and per-bit SNRs like those a table build evaluates,
// in ns per call (median of five rounds).
func berawgnNs() float64 {
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	bs := make([]int, n)
	gs := make([]float64, n)
	for i := range bs {
		bs[i] = 1 + i%16
		gs[i] = math.Pow(10, -2+5*rng.Float64())
	}
	var sink float64
	rounds := make([]float64, 5)
	for r := range rounds {
		calls := 0
		start := time.Now()
		for time.Since(start) < 100*time.Millisecond {
			for i := range bs {
				sink += modulation.BERAWGN(bs[i], gs[i])
			}
			calls += n
		}
		rounds[r] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	if math.IsNaN(sink) {
		return math.NaN()
	}
	return median(rounds)
}

// stageCosts times each batched stage of a coop.ber trial at the
// kernel's 2x2, 16-bit shape — Alamouti, BPSK, so one trial is eight
// blocks — in ns per block (one lane column), median of five rounds.
func stageCosts() map[string]float64 {
	const (
		mt, mr = 2, 2
		blocks = 8
	)
	rng := rand.New(rand.NewSource(1))
	mod := modulation.MustNew(1)
	code, err := stbc.ForTransmitters(mt)
	if err != nil {
		panic(err) // 2 transmitters always has a code
	}
	k := code.BlockSymbols()
	bits := make([]byte, blocks*k)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	dst := make([]byte, len(bits))
	var h, syms, x, noise, y, est mathx.BatchCF64
	var ws stbc.BatchWorkspace
	syms.Resize(k, blocks)
	noise.Resize(code.BlockLen()*mr, blocks)
	for i := range noise.Data {
		noise.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	channel.RayleighBatchInto(rng, mt, mr, blocks, &h)
	stages := []struct {
		name string
		fn   func()
	}{
		{"channel.rayleigh_batch_ns", func() { channel.RayleighBatchInto(rng, mt, mr, blocks, &h) }},
		{"modulation.modulate_batch_ns", func() {
			if err := mod.ModulateBatchInto(bits, &syms, k, blocks); err != nil {
				panic(err)
			}
		}},
		{"stbc.encode_batch_ns", func() { code.EncodeBatchInto(&syms, &x) }},
		{"stbc.transmit_batch_ns", func() { code.TransmitBatchInto(&x, &h, &noise, &y, mr) }},
		{"stbc.decode_batch_ns", func() { code.DecodeBatchInto(&ws, &y, &h, mr, &est) }},
		{"modulation.demodulate_batch_ns", func() {
			if err := mod.DemodulateBatchDivInto(&est, 1, k, blocks, dst); err != nil {
				panic(err)
			}
		}},
	}
	out := make(map[string]float64, len(stages))
	for _, st := range stages {
		st.fn() // size the buffers the stage writes
		rounds := make([]float64, 5)
		for r := range rounds {
			calls := 0
			start := time.Now()
			for time.Since(start) < 20*time.Millisecond {
				for i := 0; i < 256; i++ {
					st.fn()
				}
				calls += 256
			}
			rounds[r] = float64(time.Since(start).Nanoseconds()) / float64(calls*blocks)
		}
		out[st.name] = median(rounds)
	}
	return out
}
