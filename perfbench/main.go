// Command perfbench is the engine's end-to-end benchmark. It drives the
// engine only through its public entry points — internal/server with
// cypherclient, and the embedded cypher.DB — on three workloads, checks
// every output, and prints one JSON result line last. With -trace 1 it
// replays the workload with spans around the public calls of each layer
// and prints per-layer metrics and the tracing overhead instead.
//
// Run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload oltp-wire --seed 1 --seconds 25 --trace 0
//
// See README.md beside this file for the workloads, the metrics and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// config is what a workload's setup needs.
type config struct {
	seed    int64
	scale   float64
	clients int
	traced  bool
	dir     string // where durable workloads create their data directory
}

// instance is one set-up workload: its clients and the hooks the
// measurement needs.
type instance struct {
	gens  []opGen
	execs []execer // the end-to-end path, one per client
	wire  bool     // execs go over the wire
	// readOnly marks a workload without writes; its traced run times
	// Graph.Validate after every statement instead of after each write.
	readOnly bool
	// probe is the stack the traced run times layer calls on: for the
	// embedded workloads it is also the end-to-end path, for oltp-wire
	// a twin of the served database that syncProbe copies from it.
	probe      *stack
	syncProbe  func() error
	flush      string
	dir        string
	cache      func() core.CacheStats
	size       func() (nodes, rels int)
	prepare    func() error // after set-up, before timing
	final      func() error // after the run: accounting checks
	checkpoint func() error
	disk       *diskMeter
	closeFn    func() error
}

func (inst *instance) close() error {
	var err error
	if inst.closeFn != nil {
		err = inst.closeFn()
	}
	if inst.dir != "" {
		err = errors.Join(err, os.RemoveAll(inst.dir))
	}
	return err
}

func (s *stack) size() (int, int) {
	snap := s.store.Acquire()
	defer snap.Release()
	return snap.Graph().NumNodes(), snap.Graph().NumRels()
}

type workload struct {
	setup   func(config) (*instance, error)
	clients int
	// tail is the highest percentile with at least ten samples beyond it
	// in a default-length run.
	tail float64
	// warmOps is how many statements the warm-up sends, so caches fill
	// and the ingest window is full before timing. The warm-up ends on
	// this count, not on time, because the gated heap is read after it:
	// a fixed number of statements makes that figure include the heap
	// each statement leaves behind without depending on speed. Ingest's
	// 300 statements (100 batches) span a checkpoint at full scale.
	warmOps int
}

var workloads = map[string]workload{
	"oltp-wire": {setupOLTP, 2, 0.99, 3000},
	"analytics": {setupAnalytics, 1, 0.90, 45},
	"ingest":    {setupIngest, 1, 0.90, 3 * 100},
}

const (
	// Set-up repeats until it ran at least setupRuns times and for at
	// least setupFor in total, so a cheap set-up gets enough samples for
	// a steady median.
	setupRuns = 3
	setupFor  = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "oltp-wire, analytics or ingest")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result files and durable data")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload oltp-wire|analytics|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, w, options{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: 1, out: *out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// options are one invocation's settings. The smoke test shrinks scale
// (graph and batch sizes); the command always uses 1.
type options struct {
	seed    int64
	seconds int
	traced  bool
	scale   float64
	out     string
}

// metric is one reported number with its unit and, for timings, the
// number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything one invocation measured.
type report struct {
	Workload  string            `json:"workload"`
	Env       map[string]any    `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Classes   map[string]any    `json:"classes,omitempty"`
}

// line is the result line: each metric holds exactly its value and unit.
// The sample counts stay in the result file.
func (r *report) line() map[string]any {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]valueUnit, len(r.Metrics))
	for k, m := range r.Metrics {
		ms[k] = valueUnit{m.Value, m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

func run(name string, w workload, o options) (*report, error) {
	dataDir := filepath.Join(o.out, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	cfg := config{seed: o.seed, scale: o.scale, clients: w.clients, traced: o.traced, dir: dataDir}
	rep := &report{Workload: name, Env: environment(o, w), Metrics: map[string]metric{}, Extra: map[string]metric{}}

	// Set-up runs several times and its median is reported; only the
	// last instance is kept (the traced run sets up once and reports no
	// set-up time).
	var setups []float64
	var inst *instance
	begun := time.Now()
	for {
		t := time.Now()
		in, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		inst = in
		if o.traced || len(setups) >= setupRuns && time.Since(begun) >= setupFor {
			break
		}
		if err := inst.close(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	defer inst.close()
	if inst.prepare != nil {
		if err := inst.prepare(); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	n0, r0 := inst.size()
	rep.Env["nodes_start"], rep.Env["rels_start"], rep.Env["flush"] = n0, r0, inst.flush

	var total tally
	untraced := make([]doFunc, len(inst.execs))
	for i, ex := range inst.execs {
		untraced[i] = timedExec(ex)
	}
	if inst.disk != nil {
		inst.disk.reset()
	}
	warm := closedLoop(inst.gens, untraced, 0, w.warmOps)
	total.add(warm.tally)
	if inst.disk != nil {
		inst.disk.observe()
		rep.Extra["warm_checkpoints"] = metric{Value: float64(inst.disk.checkpoints), Unit: "count", Samples: warm.attempted}
	}
	// The gated heap is read after the fixed-count warm-up, not after
	// the timed window, whose statement count grows with speed.
	heap0 := liveHeapMB()

	if o.traced {
		if err := traced(rep, inst, untraced, w, o, &total); err != nil {
			return nil, err
		}
	} else {
		m := measure(inst, untraced, time.Duration(o.seconds)*time.Second)
		total.add(m.res.tally)
		e2e(rep, w, m, setups, heap0)
		heap1 := liveHeapMB()
		rep.Extra["live_heap_end_mb"] = metric{Value: heap1, Unit: "MB"}
		rep.Extra["heap_growth_kb_per_op"] = metric{Value: (heap1 - heap0) * 1024 / float64(max(m.res.attempted, 1)), Unit: "kB", Samples: m.res.attempted}
	}

	if inst.final != nil {
		total.attempted++
		if err := inst.final(); err != nil {
			total.failed++
			total.mismatches++
			if total.firstErr == nil {
				total.firstErr = fmt.Errorf("final check: %w", err)
			}
		}
	}
	n1, r1 := inst.size()
	rep.Env["nodes_end"], rep.Env["rels_end"] = n1, r1
	rep.Attempted, rep.Failed = total.attempted, total.failed
	rep.Correct = total.mismatches == 0 && total.failed == 0
	if total.firstErr != nil {
		rep.FirstErr = total.firstErr.Error()
	}
	rep.Extra["error_ratio"] = metric{Value: float64(total.failed) / float64(max(total.attempted, 1)), Unit: "ratio", Samples: total.attempted}
	printReport(rep)
	return rep, writeReport(rep, o)
}

// window is one measured closed-loop window with the runtime and cache
// counters around it.
type window struct {
	res            loopResult
	cpu            time.Duration // process CPU time over the window
	mem0, mem1     runtime.MemStats
	cache0, cache1 core.CacheStats
	disk           diskMeter
}

func measure(inst *instance, dos []doFunc, d time.Duration) window {
	var w window
	if inst.disk != nil {
		inst.disk.reset()
	}
	w.cache0 = inst.cache()
	runtime.ReadMemStats(&w.mem0)
	cpu0 := cpuTime()
	w.res = closedLoop(inst.gens, dos, d, 1)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&w.mem1)
	w.cache1 = inst.cache()
	if inst.disk != nil {
		inst.disk.observe()
		w.disk = *inst.disk
	}
	return w
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// e2e fills the end-to-end metrics of an untraced window.
func e2e(rep *report, wl workload, w window, setups []float64, heap float64) {
	all := latencies(w.res.samples, func(sample) bool { return true })
	n := len(all)
	rep.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups)}
	rep.Metrics["throughput_ops_s"] = metric{Value: float64(n) / w.res.elapsed.Seconds(), Unit: "1/s", Samples: n}
	rep.Metrics["p50_ms"] = metric{Value: quantile(all, 0.5), Unit: "ms", Samples: n}
	rep.Metrics["tail_ms"] = metric{Value: quantile(all, wl.tail), Unit: "ms", Samples: n}
	rep.Metrics["cpu_ms_per_op"] = metric{Value: w.cpu.Seconds() * 1e3 / float64(max(n, 1)), Unit: "ms", Samples: n}
	rep.Metrics["live_heap_mb"] = metric{Value: heap, Unit: "MB"}

	reads := latencies(w.res.samples, func(s sample) bool { return !s.write })
	writes := latencies(w.res.samples, func(s sample) bool { return s.write })
	for _, x := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"read_p50_ms", reads, 0.5}, {"read_p99_ms", reads, 0.99}, {"read_p90_ms", reads, 0.9},
		{"write_p50_ms", writes, 0.5}, {"write_p99_ms", writes, 0.99}} {
		if len(x.xs) > 0 {
			rep.Extra[x.name] = metric{Value: quantile(x.xs, x.q), Unit: "ms", Samples: len(x.xs)}
		}
	}
	if w.res.rows > 0 {
		rep.Extra["ingest_rows_s"] = metric{Value: float64(w.res.rows) / w.res.elapsed.Seconds(), Unit: "rows/s", Samples: n}
		rep.Extra["disk_bytes_per_row"] = metric{Value: w.disk.bytesPerRow(w.res.rows), Unit: "bytes", Samples: int(w.disk.allCommits)}
	}
	rep.Classes = classTable(w.res.samples)
}

// classTable gives each statement class its sample count and p50.
func classTable(ss []sample) map[string]any {
	byClass := map[string][]float64{}
	for _, s := range ss {
		byClass[s.class] = append(byClass[s.class], float64(s.ns)/1e6)
	}
	out := map[string]any{}
	for c, xs := range byClass {
		sort.Float64s(xs)
		out[c] = map[string]any{"samples": len(xs), "p50_ms": quantile(xs, 0.5)}
	}
	return out
}

func environment(o options, w workload) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"scale":      o.scale,
		"clients":    w.clients,
		"traced":     o.traced,
		"commit":     "unknown",
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		env["commit"] = c
	}
	return env
}

func printReport(rep *report) {
	fmt.Printf("workload %s  correct=%v attempted=%d failed=%d\n", rep.Workload, rep.Correct, rep.Attempted, rep.Failed)
	if rep.FirstErr != "" {
		fmt.Printf("  first error: %s\n", rep.FirstErr)
	}
	keys := make([]string, 0, len(rep.Env))
	for k := range rep.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var env []string
	for _, k := range keys {
		env = append(env, fmt.Sprintf("%s=%v", k, rep.Env[k]))
	}
	fmt.Printf("  env: %s\n", strings.Join(env, " "))
	for _, sec := range []struct {
		title string
		m     map[string]metric
	}{{"metrics", rep.Metrics}, {"extra", rep.Extra}} {
		names := make([]string, 0, len(sec.m))
		for k := range sec.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := sec.m[k]
			fmt.Printf("  %-7s %-34s %14.4f %-6s n=%d\n", sec.title, k, m.Value, m.Unit, m.Samples)
		}
	}
}

func writeReport(rep *report, o options) error {
	mode := "e2e"
	if o.traced {
		mode = "trace"
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-%s.json", rep.Workload, mode))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
