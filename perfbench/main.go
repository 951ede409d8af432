// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload in-process against the real packages — the researcher's
// reproduction path or the cogmimod serving stack — checks every output,
// and prints one JSON result line. See README.md for the workloads, the
// metrics and how to run it; run.sh builds and runs it from the root of
// a checkout:
//
//	bash perfbench/run.sh --workload serve-warm --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: golden files are read from here
	work     string // scratch directory for stores, inside the checkout

	attempted, failed int
	tripped           []string
	metrics           map[string]metric
	detail            map[string]any
}

// op records one attempted operation; a non-empty complaint marks it
// failed.
func (b *bench) op(complaint string) {
	b.attempted++
	if complaint != "" {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed op: %s\n", b.workload, complaint)
	}
}

// trip records a broken invariant (an exact count that moved, a ratio
// that must be fixed); any trip makes the run incorrect.
func (b *bench) trip(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.tripped = append(b.tripped, msg)
	fmt.Fprintf(os.Stderr, "perfbench: %s: check: %s\n", b.workload, msg)
}

// expect trips when two count sets differ.
func (b *bench) expect(what string, want, got counts) {
	if d := want.diff(got); d != "" {
		b.trip("%s: %s", what, d)
	}
}

func (b *bench) put(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// putMedian puts the median of xs and notes the samples and their
// quartiles in the detail line.
func (b *bench) putMedian(name, unit string, xs []float64) {
	b.put(name, unit, median(xs))
	d := map[string]any{"samples": xs}
	if q1, _, q3, err := quartiles(xs); err == nil {
		d["q1"], d["q3"] = q1, q3
	}
	b.note(name, d)
}

// note adds a value to the detail line printed before the result.
func (b *bench) note(key string, v any) { b.detail[key] = v }

// derive maps the workload seed and a label to an independent seed, so
// each input stream of a workload changes with --seed.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(label))
	return int64(h.Sum64() >> 1)
}

// quietLogger is the program's logger at cogmimod's default level,
// written nowhere.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

var workloads = map[string]func(*bench) error{
	"reproduce":  runReproduce,
	"serve-warm": runServeWarm,
	"serve-cold": runServeCold,
	"restart":    runRestart,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: reproduce, serve-warm, serve-cold or restart")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "measured time the fixed work is sized to, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
		root     = flag.String("root", ".", "root of the repository checkout")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool, root string) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	want, err := readManifest(absRoot, trace)
	if err != nil {
		return err
	}
	scratch := filepath.Join(absRoot, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(scratch, "perfbench-")
	if err != nil {
		return fmt.Errorf("creating the work directory (run from the checkout root): %w", err)
	}
	defer os.RemoveAll(work)

	env := readEnvironment(work)
	total := &bench{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		metrics: make(map[string]metric), detail: make(map[string]any),
	}
	// An untraced run measures its own workload. A traced run reports
	// the whole layer map: the workload's own layers at the size
	// --seconds gives, then every other workload's at its smallest
	// size. Its metric names carry the workload that measured them.
	runs := []string{workload}
	if trace {
		for _, w := range workloadNames() {
			if w != workload {
				runs = append(runs, w)
			}
		}
	}
	for i, w := range runs {
		secs := seconds
		if i > 0 {
			secs = 1
		}
		dir := filepath.Join(work, w)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		b := &bench{
			workload: w, seed: seed, seconds: secs, trace: trace,
			root: absRoot, work: dir,
			metrics: make(map[string]metric), detail: make(map[string]any),
		}
		if err := workloads[w](b); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		total.attempted += b.attempted
		total.failed += b.failed
		total.tripped = append(total.tripped, b.tripped...)
		prefix := ""
		if trace {
			prefix = w + "."
		}
		for name, m := range b.metrics {
			total.metrics[prefix+name] = m
		}
		total.detail[w] = b.detail
	}
	env.LoadEnd = loadavg()
	env.CPURefEnd = cpuRefMs()
	if err := checkMetrics(want, total.metrics); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}

	detail, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"env": env, "detail": total.detail, "checks_failed": total.tripped,
	})
	if err != nil {
		return err
	}
	out, err := json.Marshal(result{
		Correct:   total.failed == 0 && len(total.tripped) == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   total.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", detail, out)
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// readManifest returns the metrics BENCHMARK.json at the checkout root
// lists for the mode: name to unit.
func readManifest(root string, trace bool) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	type entry struct{ Name, Unit string }
	var man struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := man.EndToEnd
	if trace {
		list = man.PerLayer
	}
	want := make(map[string]string, len(list))
	for _, e := range list {
		want[e.Name] = e.Unit
	}
	return want, nil
}

// checkMetrics refuses a result that does not report exactly the
// manifest's metrics, each in its unit and as a finite number.
func checkMetrics(want map[string]string, got map[string]metric) error {
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return nil
}

// timeSetups runs setup reps times (once in a traced run) and, in an
// untraced run, puts the median as setup_s, so one slow boot does not
// set the figure. Every repetition but the last is torn down; the last
// one's state is returned for measuring. Each repetition's counts must
// match the first's.
func timeSetups[S any](b *bench, reps int, setup func() (S, counts, error), teardown func(S) error) (S, error) {
	if b.trace {
		reps = 1
	}
	var zero S
	var times []float64
	var first counts
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		s, c, err := setup()
		if err != nil {
			return zero, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if rep == 0 {
			first = c
		} else {
			b.expect(fmt.Sprintf("set-up %d counts", rep+1), first, c)
		}
		if rep == reps-1 {
			if b.trace {
				b.note("setup_s", times)
			} else {
				b.putMedian("setup_s", "s", times)
			}
			b.note("setup_counts", first.String())
			return s, nil
		}
		if err := teardown(s); err != nil {
			return zero, fmt.Errorf("set-up %d teardown: %w", rep+1, err)
		}
	}
	return zero, nil
}
