package main

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ebtable"
	"repro/internal/sim"
)

// TestTimingWrappersForwardAndKeepReports runs the two kernel drivers
// whose runs take each executor entry point — ext-coopber (RunShards)
// and ext-adaptive (RunChunkRange) — under the timing executor wrapped
// around a loopback cluster whose transport is wrapped too. Reports must
// equal the committed goldens byte for byte, and the work must have
// reached the cluster through both entry points.
func TestTimingWrappersForwardAndKeepReports(t *testing.T) {
	ids := []string{"ext-coopber", "ext-adaptive"}
	golden, err := loadGoldens("..", ids)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"a", "b"}
	lb := cluster.NewLoopback(addrs...)
	tr := &timingTransport{inner: lb}
	reg := cluster.NewRegistry(tr, addrs...)
	ex := newTimingExecutor(cluster.NewCoordinator(tr, reg, cluster.Config{}))

	reports, _, err := sweep(context.Background(), ids, goldenSeed, ex)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffReports(ids, golden, reports, "golden"); d != "" {
		t.Fatal(d)
	}
	kernels := ex.take()
	for _, k := range []string{"coop.ber", "coop.ber.adaptive"} {
		if kernels[k].Calls == 0 || kernels[k].Trials == 0 {
			t.Errorf("kernel %s never reached the executor: %+v", k, kernels[k])
		}
	}
	trips, failed := tr.take()
	if len(trips) == 0 || failed != 0 {
		t.Errorf("transport saw %d round trips and %d failures", len(trips), failed)
	}
	shards := 0
	for _, a := range addrs {
		shards += lb.Node(a).Shards()
	}
	if shards != len(trips) {
		t.Errorf("workers ran %d shards, transport timed %d", shards, len(trips))
	}
}

// TestTimingExecutorWithoutInnerRunsLocally checks the reproduce
// workload's executor: with no inner executor it computes chunks on the
// local pool, bit-identical to the default path.
func TestTimingExecutorWithoutInnerRunsLocally(t *testing.T) {
	params := map[string]float64{"mt": 2, "mr": 2, "snr_db": 6, "bits": 16}
	const trials = 3*sim.ChunkSize + 5
	mc := sim.MonteCarlo{Seed: 7}
	want, err := mc.RunKernelCtx(context.Background(), "coop.ber", params, trials)
	if err != nil {
		t.Fatal(err)
	}
	ex := newTimingExecutor(nil)
	got, err := mc.RunKernelCtx(sim.WithExecutor(context.Background(), ex), "coop.ber", params, trials)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("timed run %+v differs from the default run %+v", got, want)
	}
	if kt := ex.take()["coop.ber"]; kt.Trials != trials || kt.Calls != 1 {
		t.Fatalf("executor recorded %+v, want one call of %d trials", kt, trials)
	}
	if _, ok := sim.Executor(ex).(sim.RangeExecutor); !ok {
		t.Fatal("timing executor must implement sim.RangeExecutor")
	}
}

func TestCountingSolverKeepsTable(t *testing.T) {
	grid := ebtable.Grid{Ps: []float64{0.01, 0.2}, Bs: []int{1, 16}, Mts: []int{1, 2}, Mrs: []int{1}}
	want, err := ebtable.Build(ebtable.Analytic{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSolver{inner: ebtable.Analytic{}}
	got, err := ebtable.Build(cs, grid)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffTables(want, got); d != "" {
		t.Fatal(d)
	}
	if n := cs.calls.Load(); n != int64(got.Len()) {
		t.Fatalf("solver asked for %d cells, table holds %d", n, got.Len())
	}
}
