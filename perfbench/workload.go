package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/harness"
)

// graphSpec is how a kernel workload builds its graph. Set-up repeats
// reps times per run and setup_s reports the median.
type graphSpec struct {
	genName string
	reps    int
	build   func(seed uint64) (*graph.CSR, error)
}

var (
	rmatSpec = graphSpec{"gen.Graph500RMAT", 3, func(seed uint64) (*graph.CSR, error) {
		return gen.Graph500RMAT(1<<18, 16<<18, seed, gen.Options{})
	}}
	// The grid is the same for every seed; the seed picks the sources.
	meshSpec = graphSpec{"gen.Grid2D", 11, func(uint64) (*graph.CSR, error) {
		return gen.Grid2D(512, 512, false)
	}}
)

// kernelSources is how many seeded sources a kernel run cycles through.
const kernelSources = 256

// runKernelWorkload is rmat-sweep and mesh-sweep: repeated set-up, the
// warm-up gate, and the timed sweeps.
func runKernelWorkload(cfg config, spec graphSpec, rep *report) error {
	tr := (*tracer)(nil)
	if cfg.trace {
		tr = newTracer()
	}
	setupID := tr.id()
	setupStart := time.Now()
	var (
		g                  *graph.CSR
		ks                 *kernelSet
		setups, gens, engs []float64
	)
	for i := 0; i < spec.reps; i++ {
		if ks != nil {
			ks.close()
			g, ks = nil, nil // let settle free the previous repetition
		}
		settle()
		t0 := time.Now()
		var err error
		g, err = spec.build(cfg.seed)
		t1 := time.Now()
		tr.leaf(setupID, layerGen, spec.genName, t0, t1)
		if err != nil {
			return fmt.Errorf("generating graph: %w", err)
		}
		ks, err = buildKernelSet(g, false, tr, setupID)
		if err != nil {
			return err
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		gens = append(gens, t1.Sub(t0).Seconds())
		engs = append(engs, t2.Sub(t1).Seconds())
	}
	tr.add(setupID, 0, layerBench, "setup", setupStart, time.Now())
	defer ks.close()
	settle()
	inputFacts(g, rep)
	rep.note("setup: %d repetitions, median %.3fs (gen %.3fs, engines %.3fs)", spec.reps, median(setups), median(gens), median(engs))

	if err := measureKernel(cfg, ks, cfg.seconds, tr, rep, true); err != nil {
		return err
	}
	if cfg.trace {
		rep.set("setup.gen_s", "s", median(gens))
		rep.set("setup.engine_s", "s", median(engs))
		rep.set("setup.load_s", "s", 0)
		rep.note("setup.load_s: nothing is uploaded on this workload (0)")
		bypassed(rep, "serve.", "analysis.", "http.")
		return finishTrace(cfg, tr, rep)
	}
	rep.set("setup_s", "s", median(setups))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	rep.set("peak_rss_mb", "MB", maxRSSMB(&ru))
	return nil
}

// measureKernel runs the warm-up gate and the timed kernel windows on
// ks for window in total. ownsLatency makes the p=2 sweeps the run's
// answers: goodput, p50_ms, tail_ms and the tracing overhead then come
// from them (the kernel workloads); otherwise they come from HTTP.
func measureKernel(cfg config, ks *kernelSet, window time.Duration, tr *tracer, rep *report, ownsLatency bool) error {
	srcs := harness.PickSources(ks.g, kernelSources, cfg.seed)
	kr := &kernelRunner{ks: ks, srcs: srcs, valid: map[int32]uint64{}}
	warm, err := warmGate(kr, rep)
	if err != nil {
		return err
	}
	rep.addWarmup(warm)

	if !cfg.trace {
		st := newKernelStats()
		if _, err := kr.runFor(window, st, 0); err != nil {
			return err
		}
		rep.add(&st.tally)
		reportKernelE2E(st, rep, ownsLatency)
		return nil
	}

	// Traced run: an untraced window first, for the overhead baseline,
	// then the same rounds on engines with LevelTimeline, under spans,
	// with CPU and allocation counts around every run.
	untraced := newKernelStats()
	if _, err := kr.runFor(window*2/5, untraced, 0); err != nil {
		return err
	}
	rep.add(&untraced.tally)
	buildID := tr.id()
	buildStart := time.Now()
	tks, err := buildKernelSet(ks.g, true, tr, buildID)
	if err != nil {
		return err
	}
	defer tks.close()
	tr.add(buildID, 0, layerBench, "traced engines", buildStart, time.Now())
	tkr := &kernelRunner{ks: tks, srcs: srcs, valid: kr.valid, tr: tr, traced: true, round: kr.round}
	if err := tkr.runFused(nil, 0); err != nil {
		return err
	}
	if _, err := tkr.runFor(300*time.Millisecond, nil, 0); err != nil {
		return err
	}
	st := newKernelStats()
	winID := tr.id()
	winStart := time.Now()
	if _, err := tkr.runFor(window*3/5, st, winID); err != nil {
		return err
	}
	tr.add(winID, 0, layerBench, "traced window", winStart, time.Now())

	refID := tr.id()
	refStart := time.Now()
	refs, refLocks, err := refMTEPS(ks.g, srcs, 1500*time.Millisecond, st, tr, refID)
	if err != nil {
		return err
	}
	tr.add(refID, 0, layerBench, "reference runtimes", refStart, time.Now())
	rep.add(&st.tally)
	reportKernelLayers(st, refs, refLocks, rep)
	if ownsLatency {
		base := median(untraced.mteps[servedVariant])
		rep.set("trace.overhead_frac", "ratio", ratio(base-median(st.mteps[servedVariant]), base))
		rep.note("trace.overhead_frac: mteps.%s untraced %.1f vs traced %.1f", servedVariant, base, median(st.mteps[servedVariant]))
	}
	return nil
}

// reportKernelE2E sets the kernel's end-to-end metrics from an untraced
// window.
func reportKernelE2E(st *kernelStats, rep *report, ownsLatency bool) {
	for _, v := range variants {
		rep.set("mteps."+v.name, "MTEPS", median(st.mteps[v.name]))
	}
	rep.set("mteps.msbfs64", "MTEPS", median(st.mteps["msbfs64"]))
	rep.note("kernel window: %d runs, %d fused runs, %d misses", st.attempted, len(st.mteps["msbfs64"]), st.failed)
	if !ownsLatency {
		return
	}
	rep.set("goodput", "1/s", ratio(float64(st.answers), st.busy.Seconds()))
	rep.set("p50_ms", "ms", median(st.latMs))
	v, pct, n := tail(st.latMs)
	rep.set("tail_ms", "ms", v)
	rep.note("answers are p=2 %s sweeps, bfsd's default family: goodput = validated sweeps per second of sweep time; tail_ms is p%.1f of %d sweeps", servedVariant, pct, n)
}

// reportKernelLayers sets the core.* and msbfs.* per-layer metrics from
// a traced window. Ratios are printed with their bases.
func reportKernelLayers(st *kernelStats, refs map[string]float64, refLocks map[string]int64, rep *report) {
	for _, v := range variants {
		n := v.name
		c := st.counters[n]
		if c == nil {
			c = &counterSums{}
		}
		runs := float64(len(st.cpuMs[n]))
		rep.set("core.cpu_ms."+n, "ms", median(st.cpuMs[n]))
		rep.set("core.level_us."+n, "us", median(st.levelUs[n]))
		rep.set("core.dup_ratio."+n, "ratio", ratio(float64(c.pops), float64(c.reached)))
		rep.set("core.scan_per_edge."+n, "ratio", ratio(float64(c.scanned), float64(c.traversed)))
		rep.set("core.lock_ops."+n, "count", ratio(float64(c.locks), runs))
		rep.set("core.allocs."+n, "count", median(st.allocs[n]))
		rep.set("core.bytes."+n, "bytes", median(st.bytes[n]))
		rep.note("%s: %.0f traced runs, pops %d / reached %d, scanned %d / traversed %d, steals %d ok / %d attempts, %d level samples",
			n, runs, c.pops, c.reached, c.scanned, c.traversed, c.stealOK, c.stealAtt, len(st.levelUs[n]))
		if n == "BFS_WL" || n == "BFS_WSL" {
			rep.set("core.steal_ok_ratio."+n, "ratio", ratio(float64(c.stealOK), float64(c.stealAtt)))
			rep.set("core.steal_attempts."+n, "count", ratio(float64(c.stealAtt), runs))
		}
	}
	rep.set("core.bu_levels.hybrid", "count", median(st.buLevels))
	rep.set("msbfs.run_ms", "ms", median(st.msMs))
	for _, name := range []string{"BFS_C", "BFS_W", "Baseline2QueueCAS"} {
		rep.set("core.mteps_ref."+name, "MTEPS", refs[name])
		rep.note("reference %s: %.1f MTEPS at p=2, %d lock operations", name, refs[name], refLocks[name])
	}
	rep.note("Counters.AtomicRMW is not reported: internal/core never increments it, so it is no evidence for the lock- and atomic-free families")
}

// inputFacts reports the graph's size and its computed CSR footprint
// against the caches.
func inputFacts(g *graph.CSR, rep *report) {
	n, m := int64(g.NumVertices()), g.NumEdges()
	csr := float64((n+1)*8+m*4) / (1 << 20)
	rep.note("input: %d vertices, %d edges; computed CSR %.1f MiB (offsets %d B + edges %d B), per-core L2 %s",
		n, m, csr, (n+1)*8, m*4, cacheSize(2))
	rep.note("input: the host reports a %s L3, so no input here is 4x the LLC; byte counts are computed, not measured", cacheSize(3))
	rep.set("input.csr_mb", "MB", csr)
}

// bypassed reports the per-layer metrics under the given prefixes as 0
// for a workload that does not exercise those layers.
func bypassed(rep *report, prefixes ...string) {
	for _, d := range rep.perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				rep.set(d.Name, d.Unit, 0)
			}
		}
	}
	rep.note("layers %s are bypassed on this workload and read 0", strings.Join(prefixes, " "))
}

// finishTrace reports self time per layer and writes the span file.
func finishTrace(cfg config, tr *tracer, rep *report) error {
	self := tr.selfTime()
	for _, l := range traceLayers {
		rep.set("trace.self_ms."+l, "ms", float64(self[l].Nanoseconds())/1e6)
	}
	rep.set("trace.spans", "count", float64(tr.count()))
	rep.set("bench.warmup_s", "s", rep.warmup.Seconds())
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", tr.count(), path)
	return nil
}
