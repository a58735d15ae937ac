// Command perfbench is optibfs's benchmark. It generates every input
// from a seed, drives the program's layers through their exported
// functions — the internal/core engines, the internal/serve Guard and
// Registry, internal/analysis, and a bfsd subprocess over HTTP — checks
// every answer, and prints one JSON result as the last line of stdout.
//
//	bash perfbench/run.sh --workload rmat-sweep --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10 --workload http-mix
//
// Workloads:
//
//	rmat-sweep  full p=2 sweeps over a Graph500 RMAT graph, 2^18 vertices,
//	            edge factor 16: few levels, huge middle frontiers
//	mesh-sweep  the same sweeps over a 512x512 grid: ~1,000 levels with
//	            small frontiers, so barriers and wake-ups dominate
//	http-mix    a bfsd subprocess serving an uploaded RMAT graph (2^16
//	            vertices, 2^20 edges) to a closed loop of 2 connections,
//	            then the kernel sweeps in-process on the same graph
//
// With --trace 0 the result holds the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it holds the per-layer metrics, taken
// from a traced window, and spans are written to the build directory.
// Every timed window follows an untimed p=2 warm-up that runs until
// consecutive windows agree. Any wrong answer makes the command exit 1
// after printing its result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: BENCHMARK.json and the sources
	bfsd     string // built bfsd binary (http-mix)
	out      string // build directory: span files, scratch
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, its correctness tally, and the
// human-readable lines printed ahead of the result.
type report struct {
	tally
	metrics  map[string]metric
	perLayer []metricDef
	warmup   time.Duration // summed warm-up gates
}

// tally counts attempted answers and misses, keeping the first few
// misses for the report.
type tally struct {
	attempted, failed int64
	errs              []string
}

// miss counts one wrong or failed answer.
func (t *tally) miss(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// add merges another tally into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 10 {
			t.errs = append(t.errs, e)
		}
	}
}

func newReport(perLayer []metricDef) *report {
	return &report{metrics: map[string]metric{}, perLayer: perLayer}
}

func (r *report) addWarmup(d time.Duration) { r.warmup += d }

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// okFrac is validated answers over attempts.
func (r *report) okFrac() float64 {
	return ratio(float64(r.attempted-r.failed), float64(r.attempted))
}

// finish checks that the run produced exactly the metrics the spec
// lists for its mode, with the declared units, and builds the result.
func (r *report) finish(defs []metricDef) (*result, error) {
	out := map[string]metric{}
	var missing []string
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok:
			missing = append(missing, d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		default:
			out[d.Name] = m
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   out,
	}, nil
}

// printTable prints every reported metric by name with its unit.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("# %-34s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
}

func main() {
	var (
		cfg     config
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same graphs, sources and queries")
		seconds = flag.Int("seconds", 0, "measured seconds per run (0 = BENCHMARK.json run_seconds)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady  = flag.Int("steady", 0, "run the workload this many times (seeds seed..seed+n-1) and print each end-to-end metric's median, IQR and spread against its bound")
	)
	flag.StringVar(&cfg.workload, "workload", "", "rmat-sweep, mesh-sweep or http-mix")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.bfsd, "bfsd", "", "bfsd binary (http-mix)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "build directory for span files")
	flag.Parse()
	cfg.seed, cfg.trace = *seed, *trace == 1

	spec, err := loadSpec(cfg.root)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	cfg.seconds = time.Duration(*seconds) * time.Second
	why := ""
	for _, w := range spec.Workloads {
		if w.Name == cfg.workload {
			why = w.Why
		}
	}
	if why == "" {
		fatal(fmt.Errorf("unknown workload %q (want rmat-sweep, mesh-sweep or http-mix)", cfg.workload))
	}
	if *steady > 0 {
		if err := runSteady(cfg, spec, *steady, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	rep := newReport(spec.PerLayer)
	rep.note("workload %s seed %d seconds %d trace %v: %s", cfg.workload, cfg.seed, *seconds, cfg.trace, why)
	rep.note("host: nproc %d, GOMAXPROCS %d, per-core L2 %s, L3 %s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cacheSize(2), cacheSize(3))
	switch cfg.workload {
	case "rmat-sweep":
		err = runKernelWorkload(cfg, rmatSpec, rep)
	case "mesh-sweep":
		err = runKernelWorkload(cfg, meshSpec, rep)
	case "http-mix":
		err = runHTTPWorkload(cfg, rep)
	}
	if err != nil {
		fatal(err)
	}
	rep.set("ok_frac", "ratio", rep.okFrac())
	defs := spec.EndToEnd
	if cfg.trace {
		rep.set("host.nproc", "count", float64(runtime.NumCPU()))
		rep.set("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
		defs = spec.PerLayer
	}
	res, err := rep.finish(defs)
	if err != nil {
		fatal(err)
	}
	printTable(res)
	for _, e := range rep.errs {
		rep.note("MISS: %s", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// cacheSize reads a cache level's size as the kernel reports it for
// CPU 0, or "unknown".
func cacheSize(level int) string {
	for idx := 0; idx < 8; idx++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", idx)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		typ, _ := os.ReadFile(dir + "type") // a missing type file just means no filter
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if size, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// maxRSSMB converts a rusage peak resident set size (KiB on Linux) to
// MB.
func maxRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// fmtList renders a short list of rates for the report.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}
