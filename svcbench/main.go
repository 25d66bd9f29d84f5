// Command svcbench is the end-to-end benchmark of the geospanner topology
// service and of the paper's distributed construction. It drives one of
// three workloads through the public API for a fixed number of seconds,
// checks the outputs, and prints its metrics; the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics. See README.md for the workloads, the metrics and what each
// layer is expected to move.
//
// Build and run it from the repository root:
//
//	bash svcbench/run.sh --workload churn-5k --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that times the calls into each layer, writes the spans to
// <out>/spans/ and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// Instances follow the churn campaign: n nodes uniform in a region×region
// square at an expected average degree of about 20.
const region = 200

func radiusFor(n int) float64 { return region * math.Sqrt(20/(math.Pi*float64(n))) }

// Setup and recovery run at least minRepeats times and for at least
// minRepeatTime (shared between the instances of a run), and setup_s and
// recover_s are the medians: a cold build at n=5000 gives three samples, a
// cheap one at n=500 a few dozen spread over the interval.
const (
	minRepeats    = 3
	minRepeatTime = 3 * time.Second
)

// repeat calls f at least minRepeats times and for at least minTime, and
// returns its durations in seconds. A garbage collection before each
// call, outside f's timing, starts every sample from the same collector
// phase.
func repeat(minTime time.Duration, f func(i int) (time.Duration, error)) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < minRepeats || time.Since(start) < minTime {
		runtime.GC()
		d, err := f(len(out))
		if err != nil {
			return out, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opLog accumulates one client's operations. lat holds the latencies of
// successful operations only; failures count in attempted and failed.
type opLog struct {
	lat       []int64 // ns
	attempted int64
	failed    int64
	items     int64         // events applied, or nodes built
	busy      time.Duration // wall time the client spent issuing operations
}

func (l *opLog) ok(d time.Duration) {
	l.attempted++
	l.lat = append(l.lat, int64(d))
}

func (l *opLog) fail() {
	l.attempted++
	l.failed++
}

// readLog is opLog for the high-rate route client: latencies are kept as
// uint32 nanoseconds so millions of samples stay small.
type readLog struct {
	lat       []uint32
	attempted int64
	failed    int64
	hops      int64
	busy      time.Duration
}

func (l *readLog) ok(d time.Duration, hops int) {
	l.attempted++
	l.hops += int64(hops)
	l.lat = append(l.lat, uint32(min(int64(d), math.MaxUint32)))
}

func (l *readLog) fail() {
	l.attempted++
	l.failed++
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile[T int64 | uint32](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// bench is one benchmark run.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	out      string // .bench_build: results, spans
	work     string // this run's data directories, removed at exit
	tr       *tracer
	root     int64 // root span
	ops      atomic.Int64

	writes   opLog
	reads    readLog
	tail     opLog // build-2k's hand-off epochs: counted, not timed as writes
	setupS   []float64
	recoverS []float64
	heapMB   float64
	checks   []string // failed correctness checks
	layer    map[string]float64
	notes    []string // human-readable lines printed before the result
}

func (b *bench) nextOp() int64 { return b.ops.Add(1) }

// timed runs f inside a span and returns its wall time.
func (b *bench) timed(name string, parent, op int64, f func()) time.Duration {
	id := b.tr.begin(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	b.tr.end(id)
	return d
}

// check records a failed correctness check; the run keeps going so every
// check reports.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.checks = append(b.checks, fmt.Sprintf(format, args...))
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// dir returns a fresh data directory under the run's work directory.
func (b *bench) dir(name string) string { return filepath.Join(b.work, name) }

// measureHeap records the live heap after setup.
func (b *bench) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapMB = float64(ms.HeapAlloc) / (1 << 20)
}

var workloads = map[string]func(*bench) error{
	"churn-5k":     func(b *bench) error { return runServe(b, serveSpecs["churn-5k"]) },
	"spannerd-500": func(b *bench) error { return runServe(b, serveSpecs["spannerd-500"]) },
	"build-2k":     runBuild,
}

func main() {
	workload := flag.String("workload", "", "churn-5k, spannerd-500 or build-2k")
	seed := flag.Int64("seed", 1, "workload seed: instances and churn batches derive from it")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	out := flag.String("out", ".bench_build", "directory for run data, spans and results")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "svcbench: need --workload churn-5k|spannerd-500|build-2k, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		out:      *out,
		layer:    make(map[string]float64),
	}
	if *trace == 1 {
		b.tr = newTracer()
		b.root = b.tr.begin("run", 0, 0)
	}
	os.Exit(b.main(run))
}

func (b *bench) main(run func(*bench) error) int {
	var err error
	b.work, err = os.MkdirTemp(b.out, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	fmt.Printf("svcbench workload=%s seed=%d seconds=%.0f trace=%v go=%s gomaxprocs=%d\n",
		b.workload, b.seed, b.window.Seconds(), b.tr != nil, runtime.Version(), runtime.GOMAXPROCS(0))
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %s: %v\n", b.workload, err)
		return 1
	}
	b.tr.end(b.root)

	e2e := b.endToEnd()
	rep := report{
		Correct:   len(b.checks) == 0,
		Attempted: b.writes.attempted + b.reads.attempted + b.tail.attempted,
		Failed:    b.writes.failed + b.reads.failed + b.tail.failed,
		Metrics:   e2e,
	}
	for _, n := range b.notes {
		fmt.Println(n)
	}
	fmt.Printf("writes: %d attempted, %d failed (write_fail_frac %.4f); reads: %d attempted, %d failed (read_fail_frac %.4f)\n",
		b.writes.attempted, b.writes.failed, frac(b.writes.failed, b.writes.attempted),
		b.reads.attempted, b.reads.failed, frac(b.reads.failed, b.reads.attempted))
	fmt.Printf("setup samples: %d, median %.4f s; recover samples: %d, median %.4f s\n",
		len(b.setupS), median(b.setupS), len(b.recoverS), median(b.recoverS))
	printMetrics(e2e)
	if b.tr != nil {
		if err := b.finishTrace(e2e); err != nil {
			fmt.Fprintf(os.Stderr, "svcbench: trace: %v\n", err)
			return 1
		}
		rep.Metrics = b.perLayer()
	} else if err := b.saveResult(e2e); err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
		return 1
	}
	for _, c := range b.checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd derives the user-visible metrics of the run.
func (b *bench) endToEnd() map[string]metric {
	w, r := b.writes.lat, b.reads.lat
	slices.Sort(w)
	slices.Sort(r)
	return map[string]metric{
		"setup_s":           {median(b.setupS), "s"},
		"write_p50_ms":      {quantile(w, 0.5) / 1e6, "ms"},
		"write_p90_ms":      {quantile(w, 0.9) / 1e6, "ms"},
		"write_items_per_s": {float64(b.writes.items) / b.writes.busy.Seconds(), "1/s"},
		"read_qps":          {float64(len(b.reads.lat)) / b.reads.busy.Seconds(), "1/s"},
		"read_p50_us":       {quantile(r, 0.5) / 1e3, "us"},
		"read_p90_us":       {quantile(r, 0.9) / 1e3, "us"},
		"recover_s":         {median(b.recoverS), "s"},
		"heap_mb":           {b.heapMB, "MiB"},
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// resultPath is where an untraced run leaves its end-to-end metrics, so
// the traced run of the same workload and seed can report its overhead.
func (b *bench) resultPath() string {
	return filepath.Join(b.out, "results", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
}

func (b *bench) saveResult(e2e map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(b.resultPath()), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(e2e)
	if err != nil {
		return err
	}
	return os.WriteFile(b.resultPath(), data, 0o644)
}

// finishTrace writes the span file, prints the self-time table and the
// traced-minus-untraced difference of every end-to-end metric, when an
// untraced run of the same workload and seed left its result.
func (b *bench) finishTrace(e2e map[string]metric) error {
	dir := filepath.Join(b.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := b.tr.writeSpans(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(b.tr.spans), path)
	printSelfTimes(os.Stdout, b.tr.selfTimes())

	data, err := os.ReadFile(b.resultPath())
	if err != nil {
		fmt.Println("tracing overhead vs untraced run: no untraced result for this workload and seed")
		return nil
	}
	var untraced map[string]metric
	if err := json.Unmarshal(data, &untraced); err != nil {
		return fmt.Errorf("read %s: %w", b.resultPath(), err)
	}
	fmt.Println("tracing overhead (traced minus untraced, same workload and seed):")
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		u, ok := untraced[n]
		if !ok || u.Value == 0 {
			continue
		}
		d := e2e[n].Value - u.Value
		fmt.Printf("  %-20s %+14.6g %s (%+.1f%%)\n", n, d, u.Unit, 100*d/u.Value)
	}
	return nil
}
