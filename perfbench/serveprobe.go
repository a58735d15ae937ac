package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"optibfs/internal/analysis"
	"optibfs/internal/core"
	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/serve"
)

// bfsdGuardConfig is the Guard configuration bfsd runs with its default
// flags.
func bfsdGuardConfig() serve.Config {
	return serve.Config{
		Algo:        core.BFSWL,
		Concurrency: 2,
		Deadline:    5 * time.Second,
		Grace:       time.Second,
		QueueWait:   100 * time.Millisecond,
		Options:     core.Options{Shards: 1, StallTimeout: time.Second},
		Batch:       serve.BatchConfig{Enabled: true, Window: time.Millisecond, MaxLanes: 64},
	}
}

// serveProbePairs is how many (src, goal) pairs of each kind the serve
// probe runs through both the Guard and the bare engine.
const serveProbePairs = 64

// probeServe measures the serve layer in-process on the served graph
// with bfsd's default Guard configuration: Guard.QueryGoal against
// Engine.RunGoal on identical (src, goal) pairs, alternating which runs
// first; the bytes a Guard query allocates; and Registry.Begin plus
// Release. Every answer is validated. It returns the Guard's st median
// in ms.
func probeServe(g *graph.CSR, qs []query, o *oracle, tr *tracer, rep *report) (float64, error) {
	ctx := context.Background()
	cfg := bfsdGuardConfig()
	t0 := time.Now()
	gd, err := serve.New(g, cfg)
	tr.leaf(0, layerServe, "serve.New", t0, time.Now())
	if err != nil {
		return 0, fmt.Errorf("building guard: %w", err)
	}
	defer gd.Close()
	t0 = time.Now()
	eng, err := core.NewBackend(g, core.BFSWL, core.Options{TrackParents: true, StallTimeout: time.Second})
	tr.leaf(0, layerGraph, "core.NewBackend", t0, time.Now())
	if err != nil {
		return 0, fmt.Errorf("building engine: %w", err)
	}
	defer eng.Close()

	var t tally
	// check validates one answer's distances (and, for full, its tree).
	check := func(who string, q *query, dist, parent []int32) {
		t.attempted++
		want := o.dist[q.src]
		if q.kind == qST {
			if dist[q.dst] != want[q.dst] {
				t.miss("%s st %d->%d: dist %d, oracle %d", who, q.src, q.dst, dist[q.dst], want[q.dst])
			}
			return
		}
		if hashDist(dist) != hashDist(want) {
			t.miss("%s full from %d: distances differ from the oracle", who, q.src)
		} else if err := o.adj.checkTree(q.src, dist, parent); err != nil {
			t.miss("%s full from %d: %v", who, q.src, err)
		}
	}

	var guardSt float64
	for _, kind := range []qkind{qST, qFull} {
		var pairs []*query
		for i := range qs {
			if qs[i].kind == kind && len(pairs) < serveProbePairs {
				pairs = append(pairs, &qs[i])
			}
		}
		probeID := tr.id()
		probeStart := time.Now()
		var engMs, guardMs []float64
		var guardBytes uint64
		runEngine := func(q *query, goal core.Goal) {
			t0 := time.Now()
			res, err := eng.RunGoal(ctx, q.src, goal)
			t1 := time.Now()
			tr.leaf(probeID, layerCore, "Backend.RunGoal", t0, t1)
			if err != nil {
				t.attempted++
				t.miss("engine %s from %d: %v", kindNames[kind], q.src, err)
				return
			}
			engMs = append(engMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
			check("engine", q, res.Dist, res.Parent)
		}
		runGuard := func(q *query, goal core.Goal) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			ans, err := gd.QueryGoal(ctx, q.src, goal)
			t1 := time.Now()
			runtime.ReadMemStats(&m1)
			tr.leaf(probeID, layerServe, "Guard.QueryGoal", t0, t1)
			if err != nil {
				t.attempted++
				t.miss("guard %s from %d: %v", kindNames[kind], q.src, err)
				return
			}
			guardMs = append(guardMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
			guardBytes += m1.TotalAlloc - m0.TotalAlloc
			check("guard", q, ans.Dist, ans.Parent)
		}
		for i, q := range pairs {
			goal := core.Goal{}
			if kind == qST {
				goal = core.GoalTo(q.dst)
			}
			if i%2 == 0 {
				runEngine(q, goal)
				runGuard(q, goal)
			} else {
				runGuard(q, goal)
				runEngine(q, goal)
			}
		}
		tr.add(probeID, 0, layerBench, "serve probe "+kindNames[kind], probeStart, time.Now())
		e, gm := median(engMs), median(guardMs)
		name := kindNames[kind]
		rep.set("serve.overhead."+name, "ratio", ratio(gm-e, e))
		rep.set("serve.bytes_per_query."+name, "bytes", ratio(float64(guardBytes), float64(len(guardMs))))
		rep.note("serve.overhead.%s: Guard.QueryGoal p50 %.3f ms over Engine.RunGoal p50 %.3f ms, %d pairs", name, gm, e, len(pairs))
		if kind == qST {
			guardSt = gm
		}
	}

	reg := serve.NewRegistry(serve.RegistryConfig{Guard: cfg, Admission: serve.AdmissionConfig{QueueWait: time.Second}})
	defer reg.Close()
	t0 = time.Now()
	err = reg.Load(ctx, "default", func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) { return g, nil, nil })
	tr.leaf(0, layerServe, "Registry.Load", t0, time.Now())
	if err != nil {
		return 0, fmt.Errorf("registry load: %w", err)
	}
	beginID := tr.id()
	beginStart := time.Now()
	var beginUs []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		l, err := reg.Begin(ctx, "default")
		if err != nil {
			return 0, fmt.Errorf("registry begin: %w", err)
		}
		l.Release()
		t1 := time.Now()
		tr.leaf(beginID, layerServe, "Registry.Begin+Release", t0, t1)
		beginUs = append(beginUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	tr.add(beginID, 0, layerBench, "registry probe", beginStart, time.Now())
	rep.set("serve.begin_us", "us", median(beginUs))
	rep.add(&t)
	return guardSt, nil
}

// probeAnalysis times the analyses bfsd serves, called the way bfsd
// calls them: a one-source Eccentricities per ecc query and an uncached
// Components. Answers are checked against the oracle.
func probeAnalysis(g *graph.CSR, qs []query, o *oracle, tr *tracer, rep *report) error {
	var t tally
	probeID := tr.id()
	probeStart := time.Now()
	var eccMs, compMs []float64
	for i := range qs {
		q := &qs[i]
		if q.kind != qEcc || len(eccMs) >= 16 {
			continue
		}
		t0 := time.Now()
		eccs, err := analysis.Eccentricities(g, []int32{q.src}, core.Options{})
		t1 := time.Now()
		tr.leaf(probeID, layerAnalysis, "analysis.Eccentricities", t0, t1)
		t.attempted++
		if err != nil {
			t.miss("ecc from %d: %v", q.src, err)
			continue
		}
		if want := graph.Eccentricity(o.dist[q.src]); eccs[0] != want {
			t.miss("ecc from %d: %d, oracle %d", q.src, eccs[0], want)
			continue
		}
		eccMs = append(eccMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		_, sizes, err := analysis.Components(g, core.Options{})
		t1 := time.Now()
		tr.leaf(probeID, layerAnalysis, "analysis.Components", t0, t1)
		t.attempted++
		if err != nil {
			t.miss("components: %v", err)
			continue
		}
		var largest int64
		for _, s := range sizes {
			largest = max(largest, s)
		}
		if int64(len(sizes)) != o.comps || largest != o.largest {
			t.miss("components: %d (largest %d), oracle %d (largest %d)", len(sizes), largest, o.comps, o.largest)
			continue
		}
		compMs = append(compMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	tr.add(probeID, 0, layerBench, "analysis probe", probeStart, time.Now())
	rep.set("analysis.ecc_ms", "ms", median(eccMs))
	rep.set("analysis.components_ms", "ms", median(compMs))
	rep.add(&t)
	return nil
}
