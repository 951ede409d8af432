package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Counters the program already exports through its Prometheus registry
// (GET /metrics/prom). Reading them in-process adds nothing to the
// program: the same text a scraper would see is parsed here.
const (
	promTrials      = "cogmimod_mc_trials_total"
	promShardsOK    = `cogmimod_shards_total{status="ok"}`
	promShardsFail  = `cogmimod_shards_total{status="failed"}`
	promShardsRetry = `cogmimod_shards_total{status="retried"}`
	promShardsLocal = `cogmimod_shards_total{status="local"}`
)

// promCounters returns the current value of each named series.
func promCounters(names ...string) (map[string]int64, error) {
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf)
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]int64, len(names))
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		series, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[series] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", series, err)
		}
		out[series] = int64(v)
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("series %s not exported by the program", n)
		}
	}
	return out, nil
}

// counts is a set of exact work counts. Two runs of the same operation
// must produce equal counts; a difference is a failed check.
type counts map[string]int64

func (c counts) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return strings.Join(parts, " ")
}

// diff describes how got differs from want, or returns "" when equal.
func (c counts) diff(got counts) string {
	if c.String() == got.String() {
		return ""
	}
	return fmt.Sprintf("want {%s}, got {%s}", c, got)
}

// heap samples runtime/metrics allocation and GC totals.
type heap struct {
	allocBytes, allocObjects, gcCycles uint64
	pauseNs                            uint64
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readHeap(withPauses bool) heap {
	s := make([]metrics.Sample, len(heapSamples))
	copy(s, heapSamples)
	metrics.Read(s)
	h := heap{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
	}
	if withPauses {
		// runtime/metrics only offers pauses as a bucketed histogram;
		// MemStats carries the exact total.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.pauseNs = ms.PauseTotalNs
	}
	return h
}

func (h heap) sub(base heap) heap {
	return heap{
		allocBytes:   h.allocBytes - base.allocBytes,
		allocObjects: h.allocObjects - base.allocObjects,
		gcCycles:     h.gcCycles - base.gcCycles,
		pauseNs:      h.pauseNs - base.pauseNs,
	}
}
