package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"optibfs/internal/baseline2"
	"optibfs/internal/core"
	"optibfs/internal/graph"
)

// variant is one timed engine configuration of the kernel sweeps.
type variant struct {
	name string
	algo core.Algorithm
	opt  core.Options
	span string // span name of one run
}

// variants are the single-source engines every kernel round runs, at
// default engine options: the four lock- and atomic-free families at
// p=2, the direction-optimizing BFS_WSL, and the p=1 baseline.
var variants = []variant{
	{"BFS_CL", core.BFSCL, core.Options{Workers: 2}, "Engine.Run:BFS_CL"},
	{"BFS_DL", core.BFSDL, core.Options{Workers: 2}, "Engine.Run:BFS_DL"},
	{"BFS_WL", core.BFSWL, core.Options{Workers: 2}, "Engine.Run:BFS_WL"},
	{"BFS_WSL", core.BFSWSL, core.Options{Workers: 2}, "Engine.Run:BFS_WSL"},
	{"BFS_WSL-hybrid", core.BFSWSL, core.Options{Workers: 2, Hybrid: true}, "Engine.Run:BFS_WSL-hybrid"},
	{"BFS_WL-p1", core.BFSWL, core.Options{Workers: 1}, "Engine.Run:BFS_WL-p1"},
}

// servedVariant is the configuration bfsd serves single-source queries
// with by default (BFS_WL, p=2). Its sweeps are the kernel workloads'
// answers — goodput, p50_ms and tail_ms — and its MTEPS is the headline
// the traced run compares against an untraced window.
const servedVariant = "BFS_WL"

// msLanes is the fused-run width of the mteps.msbfs64 metric, and
// msShare the share of a window's time given to fused runs.
const (
	msLanes = 64
	msShare = 0.4
)

// kernelSet is one graph with a warm engine per variant plus a fused
// multi-source engine.
type kernelSet struct {
	g   *graph.CSR
	eng []*core.Engine
	ms  *core.MSEngine
}

// buildKernelSet constructs every engine on g. timeline turns on
// Options.LevelTimeline (traced runs only).
func buildKernelSet(g *graph.CSR, timeline bool, tr *tracer, parent int64) (*kernelSet, error) {
	ks := &kernelSet{g: g}
	for _, v := range variants {
		opt := v.opt
		opt.LevelTimeline = timeline
		start := time.Now()
		e, err := core.NewEngine(g, v.algo, opt)
		tr.leaf(parent, layerGraph, "core.NewEngine:"+v.name, start, time.Now())
		if err != nil {
			ks.close()
			return nil, fmt.Errorf("building %s engine: %w", v.name, err)
		}
		ks.eng = append(ks.eng, e)
	}
	start := time.Now()
	ms, err := core.NewMSEngine(g, core.Options{Workers: 2})
	tr.leaf(parent, layerGraph, "core.NewMSEngine", start, time.Now())
	if err != nil {
		ks.close()
		return nil, fmt.Errorf("building fused engine: %w", err)
	}
	ks.ms = ms
	return ks, nil
}

func (ks *kernelSet) close() {
	for _, e := range ks.eng {
		e.Close()
	}
	if ks.ms != nil {
		ks.ms.Close()
	}
}

// kernelStats accumulates one window of kernel rounds.
type kernelStats struct {
	mteps   map[string][]float64 // variant (or "msbfs64") -> MTEPS per validated run
	latMs   []float64            // every servedVariant sweep, validated or not
	answers int64                // validated servedVariant sweeps
	busy    time.Duration        // wall time inside servedVariant sweeps
	tally

	// Filled only by traced windows.
	cpuMs, levelUs, allocs, bytes map[string][]float64
	counters                      map[string]*counterSums
	buLevels                      []float64
	msMs                          []float64
}

// counterSums totals the engine counters a traced window reports.
type counterSums struct {
	pops, reached, scanned, traversed, stealAtt, stealOK, locks int64
}

func newKernelStats() *kernelStats {
	return &kernelStats{
		mteps: map[string][]float64{}, cpuMs: map[string][]float64{}, levelUs: map[string][]float64{},
		allocs: map[string][]float64{}, bytes: map[string][]float64{}, counters: map[string]*counterSums{},
	}
}

// kernelRunner drives rounds over a kernelSet. Every round runs each
// variant once from the same source, in an order that rotates by
// round so no variant always follows the same neighbour. Fused runs of
// msLanes sources take msShare of the time between rounds.
type kernelRunner struct {
	ks     *kernelSet
	srcs   []int32
	round  int
	ref    []int32          // validated distances of the current round's source
	valid  map[int32]uint64 // source -> hashDist of its validated distances
	tr     *tracer
	traced bool // collect per-layer counters, CPU and allocations
}

// p2Rate is the p=2 single-source throughput of a window: traversed
// edges over time inside those sweeps. The warm-up gate compares it
// between windows.
type p2Rate struct {
	edges int64
	busy  time.Duration
}

// runFor runs rounds and fused runs for d. With st nil the rounds are
// warm-up: untimed, unvalidated and without fused runs, reporting only
// their p=2 rate.
func (kr *kernelRunner) runFor(d time.Duration, st *kernelStats, parent int64) (p2Rate, error) {
	var rate p2Rate
	var rounds, fused time.Duration
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		if st != nil && float64(fused)*(1-msShare) < float64(rounds)*msShare {
			if err := kr.runFused(st, parent); err != nil {
				return rate, err
			}
			fused += time.Since(t0)
			continue
		}
		if err := kr.runRound(st, parent, &rate); err != nil {
			return rate, err
		}
		rounds += time.Since(t0)
	}
	return rate, nil
}

func (kr *kernelRunner) runRound(st *kernelStats, parent int64, rate *p2Rate) error {
	r := kr.round
	kr.round++
	src := kr.srcs[r%len(kr.srcs)]
	roundID := kr.tr.id()
	roundStart := time.Now()
	refValid := false
	for i := range variants {
		vi := (r + i) % len(variants)
		v := variants[vi]
		var ru0 syscall.Rusage
		var m0 runtime.MemStats
		if kr.traced && st != nil {
			runtime.ReadMemStats(&m0)
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
		}
		start := time.Now()
		res, err := kr.ks.eng[vi].Run(src)
		end := time.Now()
		if kr.traced && st != nil {
			var ru1 syscall.Rusage
			var m1 runtime.MemStats
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
			runtime.ReadMemStats(&m1)
			st.cpuMs[v.name] = append(st.cpuMs[v.name], float64(cpuTime(ru1)-cpuTime(ru0))/1e6)
			st.allocs[v.name] = append(st.allocs[v.name], float64(m1.Mallocs-m0.Mallocs))
			st.bytes[v.name] = append(st.bytes[v.name], float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		kr.tr.leaf(roundID, layerCore, v.span, start, end)
		d := end.Sub(start)
		if v.opt.Workers == 2 && err == nil {
			rate.edges += res.EdgesTraversed
			rate.busy += d
		}
		if st == nil {
			if err != nil {
				return fmt.Errorf("warm-up %s from %d: %w", v.name, src, err)
			}
			continue
		}
		st.attempted++
		if v.name == servedVariant {
			st.latMs = append(st.latMs, float64(d.Nanoseconds())/1e6)
		}
		if err != nil {
			st.miss("%s from %d: %v", v.name, src, err)
			continue
		}
		vstart := time.Now()
		ok := kr.check(src, res.Dist, &refValid, st, v.name)
		kr.tr.leaf(roundID, layerValidate, "check", vstart, time.Now())
		if !ok {
			continue
		}
		st.mteps[v.name] = append(st.mteps[v.name], float64(res.EdgesTraversed)/d.Seconds()/1e6)
		if v.name == servedVariant {
			st.answers++
			st.busy += d
		}
		if kr.traced {
			kr.collect(v, res, st)
		}
	}
	kr.tr.add(roundID, parent, layerBench, "round", roundStart, time.Now())
	return nil
}

// check validates one run's distances. The round's first run is checked
// with graph.ValidateDistances and kept as the round's reference; the
// other variants from the same source must then match it exactly.
func (kr *kernelRunner) check(src int32, dist []int32, refValid *bool, st *kernelStats, name string) bool {
	if !*refValid {
		if kr.ref == nil {
			kr.ref = make([]int32, len(dist))
		}
		err := graph.ValidateDistances(kr.ks.g, src, dist)
		if err == nil {
			copy(kr.ref, dist)
		} else {
			st.miss("%s from %d: %v", name, src, err)
			copy(kr.ref, graph.ReferenceBFS(kr.ks.g, src))
		}
		kr.valid[src] = hashDist(kr.ref)
		*refValid = true
		return err == nil
	}
	for v, d := range dist {
		if d != kr.ref[v] {
			st.miss("%s from %d: dist[%d]=%d, want %d", name, src, v, d, kr.ref[v])
			return false
		}
	}
	return true
}

// collect adds a traced run's counters and level timeline.
func (kr *kernelRunner) collect(v variant, res *core.Result, st *kernelStats) {
	c := st.counters[v.name]
	if c == nil {
		c = &counterSums{}
		st.counters[v.name] = c
	}
	c.pops += res.Pops
	c.reached += res.Reached
	c.scanned += res.Counters.EdgesScanned
	c.traversed += res.EdgesTraversed
	c.stealAtt += res.Counters.StealAttempts
	c.stealOK += res.Counters.StealSuccess
	c.locks += res.Counters.LockAcquisitions + res.Counters.LockTryFails
	for _, ls := range res.LevelStats {
		st.levelUs[v.name] = append(st.levelUs[v.name], float64(ls.WallNanos)/1e3)
	}
	if v.opt.Hybrid {
		st.buLevels = append(st.buLevels, float64(res.Counters.BottomUpLevels))
	}
}

// runFused runs one fused search over the run's first msLanes sources
// (the same lanes every time, so a window's fused runs repeat one
// measurement) and validates every lane: a lane whose source a round already validated
// must hash to the same distances, any other lane goes through
// graph.ValidateDistances.
func (kr *kernelRunner) runFused(st *kernelStats, parent int64) error {
	start := time.Now()
	res, err := kr.ks.ms.Run(kr.srcs[:msLanes])
	end := time.Now()
	kr.tr.leaf(parent, layerMSBFS, "MSEngine.Run", start, end)
	if st == nil {
		if err != nil {
			return fmt.Errorf("warm-up fused run: %w", err)
		}
		return nil
	}
	st.attempted += msLanes
	if err != nil {
		st.failed += msLanes - 1
		st.miss("fused run: %v", err)
		return nil
	}
	vstart := time.Now()
	var edges int64
	bad := 0
	for i := 0; i < res.Lanes; i++ {
		lane := res.Lane(i)
		edges += lane.EdgesTraversed
		h := hashDist(lane.Dist)
		if want, ok := kr.valid[lane.Src]; ok {
			if h != want {
				bad++
				st.miss("fused lane %d from %d: distances differ from the validated run", i, lane.Src)
			}
			continue
		}
		if err := graph.ValidateDistances(kr.ks.g, lane.Src, lane.Dist); err != nil {
			bad++
			st.miss("fused lane %d from %d: %v", i, lane.Src, err)
			continue
		}
		kr.valid[lane.Src] = h
	}
	kr.tr.leaf(parent, layerValidate, "check", vstart, time.Now())
	if bad == 0 {
		d := end.Sub(start)
		st.mteps["msbfs64"] = append(st.mteps["msbfs64"], float64(edges)/d.Seconds()/1e6)
		st.msMs = append(st.msMs, float64(d.Nanoseconds())/1e6)
	}
	return nil
}

func cpuTime(ru syscall.Rusage) int64 {
	return syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
}

// settle collects set-up garbage and returns freed pages to the OS, so
// a collection cycle left over from building graphs does not compete
// with the first timed p=2 sweeps for the second CPU.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// warmGate runs one untimed fused run, then untimed rounds in
// half-second windows until the last three windows' p=2 rates agree
// within 3%, or warmCap passes. The first window is never timed. It
// returns how long the warm-up took.
func warmGate(kr *kernelRunner, rep *report) (time.Duration, error) {
	const (
		window  = 500 * time.Millisecond
		agree   = 0.03
		warmCap = 6 * time.Second
	)
	start := time.Now()
	if err := kr.runFused(nil, 0); err != nil {
		return 0, err
	}
	gate := time.Now()
	var rates []float64
	for {
		r, err := kr.runFor(window, nil, 0)
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(r.edges)/r.busy.Seconds()/1e6)
		if n := len(rates); n >= 3 && spreadOf(rates[n-3:]) <= agree {
			break
		}
		if time.Since(gate) >= warmCap {
			rep.note("warm-up: gate hit its %v cap before three windows agreed within %.0f%%", warmCap, agree*100)
			break
		}
	}
	rep.note("warm-up: %d windows of p=2 rounds, MTEPS %s", len(rates), fmtList(rates))
	return time.Since(start), nil
}

// spreadOf is max/min - 1 of a window of rates.
func spreadOf(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi/lo - 1
}

// refMTEPS measures the paper's reference runtimes at p=2 for about d:
// the locked BFS_C and BFS_W engines and Baseline2's CAS queue. Every
// run is validated and counts toward the run's attempts.
func refMTEPS(g *graph.CSR, srcs []int32, d time.Duration, st *kernelStats, tr *tracer, parent int64) (map[string]float64, map[string]int64, error) {
	type ref struct {
		name string
		run  func(src int32) (*core.Result, error)
	}
	var refs []ref
	for _, a := range []core.Algorithm{core.BFSC, core.BFSW} {
		e, err := core.NewEngine(g, a, core.Options{Workers: 2})
		if err != nil {
			return nil, nil, fmt.Errorf("building %s engine: %w", a, err)
		}
		defer e.Close()
		refs = append(refs, ref{string(a), e.Run})
	}
	refs = append(refs, ref{"Baseline2QueueCAS", func(src int32) (*core.Result, error) {
		return baseline2.Run(g, src, baseline2.QueueCAS, core.Options{Workers: 2})
	}})
	samples := map[string][]float64{}
	locks := map[string]int64{}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) || i < 2; i++ {
		src := srcs[i%len(srcs)]
		for _, rf := range refs {
			start := time.Now()
			res, err := rf.run(src)
			end := time.Now()
			tr.leaf(parent, layerCore, "ref:"+rf.name, start, end)
			st.attempted++
			if err != nil {
				st.miss("%s from %d: %v", rf.name, src, err)
				continue
			}
			if err := graph.ValidateDistances(g, src, res.Dist); err != nil {
				st.miss("%s from %d: %v", rf.name, src, err)
				continue
			}
			samples[rf.name] = append(samples[rf.name], float64(res.EdgesTraversed)/end.Sub(start).Seconds()/1e6)
			locks[rf.name] += res.Counters.LockAcquisitions + res.Counters.LockTryFails
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out, locks, nil
}
