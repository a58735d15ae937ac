package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/harness"
	"optibfs/internal/mmio"
	"optibfs/internal/rng"
	"optibfs/internal/stats"
)

// The http-mix inputs: the served graph, the small graph the swap
// template re-uploads under a second name, and the closed loop.
const (
	httpVertices  = 1 << 16
	httpEdges     = 1 << 20
	swapVertices  = 1 << 12
	swapEdges     = 1 << 15
	httpConns     = 2
	httpSources   = 128  // distinct query sources (each one oracle BFS after the window)
	httpQueries   = 2048 // pre-generated query list the connections cycle through
	httpSetupReps = 3
	httpKMax      = 3 // k-hop depth bound drawn from 1..httpKMax
)

// qkind is a query template of the mix.
type qkind uint8

const (
	qST qkind = iota
	qKhop
	qFull
	qComponents
	qEcc
	qSwap
	numKinds
)

var (
	kindNames   = [numKinds]string{"st", "khop", "full", "components", "ecc", "swap"}
	kindWeights = [numKinds]int{40, 25, 20, 5, 10, 1}
)

// kindFields names the scalar answer fields each kind keeps for
// validation, in rec.val order.
var kindFields = [numKinds][2]string{
	qST:         {"dist", "parent"},
	qKhop:       {"reached", "-"},
	qFull:       {"-", "-"},
	qComponents: {"components", "largest"},
	qEcc:        {"ecc", "-"},
	qSwap:       {"vertices", "-"},
}

// query is one pre-generated request.
type query struct {
	kind        qkind
	src, dst, k int32
	path        string
}

// makeQueries draws the seeded query list over g. Sources come from a
// small pool of vertices with out-edges, so the oracle after the window
// runs one serial BFS per pool entry.
func makeQueries(g *graph.CSR, seed uint64) []query {
	pool := harness.PickSources(g, httpSources, seed)
	r := rng.NewXoshiro256(seed ^ 0x717565)
	total := 0
	for _, w := range kindWeights {
		total += w
	}
	qs := make([]query, httpQueries)
	for i := range qs {
		x := r.Intn(total)
		k := qkind(0)
		for x >= kindWeights[k] {
			x -= kindWeights[k]
			k++
		}
		q := query{kind: k, src: pool[r.Intn(len(pool))]}
		switch k {
		case qST:
			q.dst = r.Int32n(g.NumVertices())
			q.path = fmt.Sprintf("/query?src=%d&dst=%d", q.src, q.dst)
		case qKhop:
			q.k = 1 + r.Int32n(httpKMax)
			q.path = fmt.Sprintf("/query?src=%d&k=%d", q.src, q.k)
		case qFull:
			q.path = fmt.Sprintf("/query?src=%d&full=1", q.src)
		case qComponents:
			q.path = "/query?kind=components"
		case qEcc:
			q.path = fmt.Sprintf("/query?kind=ecc&src=%d", q.src)
		case qSwap:
			q.path = "/graphs/swap?format=bin"
		}
		qs[i] = q
	}
	return qs
}

// daemon is a bfsd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logs *logTail
	done chan error
}

// logTail keeps the last lines bfsd wrote to stderr, for error reports.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (l *logTail) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, s)
	if len(l.lines) > 20 {
		l.lines = l.lines[1:]
	}
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// startDaemon runs bfsd with default flags on a free loopback port and
// waits for it to listen.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("starting bfsd: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bfsd: %w", err)
	}
	d := &daemon{cmd: cmd, logs: &logTail{}, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logs.add(line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("bfsd exited before listening: %v\n%s", err, d.logs)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("bfsd did not listen within 10s\n%s", d.logs)
	}
}

// stop sends SIGTERM, waits for the drain, and kills bfsd if it has not
// exited after 10 seconds. It returns once the process has ended.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("bfsd exit: %v\n%s", err, d.logs)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports the outcome
		<-d.done
		return fmt.Errorf("bfsd did not drain within 10s")
	}
}

// upload POSTs a graph in the binary format and waits until bfsd
// reports it ready.
func upload(hc *http.Client, base, path string, body []byte) error {
	resp, err := hc.Post(base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("uploading graph: %w", err)
	}
	msg, _ := io.ReadAll(resp.Body) // the status decides; the body is only for the error text
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("uploading graph: %s: %s", resp.Status, msg)
	}
	resp, err = hc.Get(base + "/readyz")
	if err != nil {
		return fmt.Errorf("readiness probe: %w", err)
	}
	msg, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readiness probe: %s: %s", resp.Status, msg)
	}
	return nil
}

// encodeGraph serializes g in the binary upload format.
func encodeGraph(g *graph.CSR) ([]byte, error) {
	var buf bytes.Buffer
	if err := mmio.WriteBinary(&buf, g); err != nil {
		return nil, fmt.Errorf("encoding graph: %w", err)
	}
	return buf.Bytes(), nil
}

// rec is one request's outcome as the client saw it. Answers are kept
// compact — a full answer keeps only a hash of its distances — and
// checked against the oracle after the window.
type rec struct {
	q      *query
	status int
	lat    time.Duration
	bytes  int
	val    [2]int64 // the kind's kindFields
	hash   uint64   // full: FNV-1a of dist_all
	errMsg string   // transport or decoding error; for full, the parent tree check
	fused  bool
	lanes  int64
}

// conn is one client connection of the closed loop, with buffers
// reused across responses so the client adds no garbage.
type conn struct {
	hc       *http.Client
	base     string
	swapBody []byte
	adj      *sortedAdj
	buf      bytes.Buffer
	dist     []int32
	parent   []int32
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: httpConns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and decodes what validation needs.
func (c *conn) do(q *query) rec {
	r := rec{q: q}
	start := time.Now()
	var resp *http.Response
	var err error
	if q.kind == qSwap {
		resp, err = c.hc.Post(c.base+q.path, "application/octet-stream", bytes.NewReader(c.swapBody))
	} else {
		resp, err = c.hc.Get(c.base + q.path)
	}
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.lat = time.Since(start)
	r.bytes = c.buf.Len()
	if err != nil {
		r.status = -1
		r.errMsg = err.Error()
		return r
	}
	if r.status != http.StatusOK {
		return r
	}
	body := c.buf.Bytes()
	perr := scanObject(body, func(key, raw []byte) error {
		var err error
		switch f := kindFields[q.kind]; string(key) {
		case f[0]:
			r.val[0], err = strconv.ParseInt(string(raw), 10, 64)
		case f[1]:
			r.val[1], err = strconv.ParseInt(string(raw), 10, 64)
		case "fused":
			r.fused = string(raw) == "true"
		case "batch_lanes":
			r.lanes, err = strconv.ParseInt(string(raw), 10, 64)
		case "dist_all":
			c.dist, err = parseInts(raw, c.dist[:0])
		case "parent_all":
			c.parent, err = parseInts(raw, c.parent[:0])
		}
		return err
	})
	switch {
	case perr != nil:
		r.errMsg = "decoding response: " + perr.Error()
	case q.kind == qFull:
		r.hash = hashDist(c.dist)
		if err := c.adj.checkTree(q.src, c.dist, c.parent); err != nil {
			r.errMsg = err.Error()
		}
	}
	return r
}

// httpWindow is one closed-loop window's records.
type httpWindow struct {
	recs    []rec
	elapsed time.Duration
}

// runLoop drives the closed loop for d: each connection sends its next
// query when the previous answer is in. Connection i starts at a
// different offset of the query list.
func runLoop(conns []*conn, qs []query, d time.Duration, tr *tracer, parent int64) httpWindow {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]rec, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			idx := i * len(qs) / len(conns)
			for time.Now().Before(deadline) {
				q := &qs[idx%len(qs)]
				idx++
				t0 := time.Now()
				r := c.do(q)
				tr.leaf(parent, layerHTTP, kindNames[q.kind], t0, t0.Add(r.lat))
				per[i] = append(per[i], r)
			}
		}(i, c)
	}
	wg.Wait()
	w := httpWindow{elapsed: time.Since(start)}
	for _, p := range per {
		w.recs = append(w.recs, p...)
	}
	return w
}

// okCount is the number of 200 answers in a window, the warm-up gate's
// rate.
func (w httpWindow) okCount() int {
	n := 0
	for _, r := range w.recs {
		if r.status == http.StatusOK {
			n++
		}
	}
	return n
}

// httpWarmGate runs the mix untimed in 0.75 s windows until the last
// three windows' answer rates agree within 5%, or 6 s pass.
func httpWarmGate(conns []*conn, qs []query, rep *report) time.Duration {
	const (
		window  = 750 * time.Millisecond
		agree   = 0.05
		warmCap = 6 * time.Second
	)
	start := time.Now()
	var rates []float64
	for {
		w := runLoop(conns, qs, window, nil, 0)
		rates = append(rates, float64(w.okCount())/w.elapsed.Seconds())
		if n := len(rates); n >= 3 && spreadOf(rates[n-3:]) <= agree {
			break
		}
		if time.Since(start) >= warmCap {
			rep.note("warm-up: HTTP gate hit its %v cap before three windows agreed within %.0f%%", warmCap, agree*100)
			break
		}
	}
	rep.note("warm-up: %d HTTP windows, answers/s %s", len(rates), fmtList(rates))
	return time.Since(start)
}

// oracle holds the client's own answers for the served graph: one
// serial BFS per query source and the weak components.
type oracle struct {
	g       *graph.CSR
	adj     *sortedAdj
	dist    map[int32][]int32
	comps   int64
	largest int64
}

func newOracle(g *graph.CSR, adj *sortedAdj, qs []query) *oracle {
	o := &oracle{g: g, adj: adj, dist: map[int32][]int32{}}
	for _, q := range qs {
		if _, ok := o.dist[q.src]; !ok && q.kind != qComponents && q.kind != qSwap {
			o.dist[q.src] = graph.ReferenceBFS(g, q.src)
		}
	}
	o.comps, o.largest = weakComponents(g)
	return o
}

// check validates one record; "" means a correct answer.
func (o *oracle) check(r *rec) string {
	q := r.q
	if r.status != http.StatusOK {
		return fmt.Sprintf("%s %s: status %d %s", kindNames[q.kind], q.path, r.status, r.errMsg)
	}
	if r.errMsg != "" {
		return fmt.Sprintf("%s %s: %s", kindNames[q.kind], q.path, r.errMsg)
	}
	want := o.dist[q.src]
	switch q.kind {
	case qST:
		d, p := int32(r.val[0]), int32(r.val[1])
		if d != want[q.dst] {
			return fmt.Sprintf("st %s: dist %d, oracle %d", q.path, d, want[q.dst])
		}
		switch {
		case d == graph.Unreached && p != -1, d == 0 && p != q.src:
			return fmt.Sprintf("st %s: parent %d for dist %d", q.path, p, d)
		case d > 0 && (p < 0 || p >= o.g.NumVertices() || want[p] != d-1 || !o.adj.has(p, q.dst)):
			return fmt.Sprintf("st %s: parent %d is not a tree edge", q.path, p)
		}
	case qKhop:
		var n int64
		for _, d := range want {
			if d != graph.Unreached && d <= q.k {
				n++
			}
		}
		if r.val[0] != n {
			return fmt.Sprintf("khop %s: reached %d, oracle %d", q.path, r.val[0], n)
		}
	case qFull:
		if r.hash != hashDist(want) {
			return fmt.Sprintf("full %s: distances differ from the oracle", q.path)
		}
	case qComponents:
		if r.val[0] != o.comps || r.val[1] != o.largest {
			return fmt.Sprintf("components: %d (largest %d), oracle %d (largest %d)", r.val[0], r.val[1], o.comps, o.largest)
		}
	case qEcc:
		if e := int64(graph.Eccentricity(want)); r.val[0] != e {
			return fmt.Sprintf("ecc %s: %d, oracle %d", q.path, r.val[0], e)
		}
	case qSwap:
		if r.val[0] != swapVertices {
			return fmt.Sprintf("swap: %d vertices, want %d", r.val[0], swapVertices)
		}
	}
	return ""
}

// httpStats summarizes one validated window.
type httpStats struct {
	tally
	goodput    float64
	lat        []float64 // ms, every attempt
	byKind     [numKinds][]float64
	fullBytes  []float64
	sheds      int64
	fused, bfs int64
	lanes      []float64
}

func summarize(w httpWindow, o *oracle) *httpStats {
	s := &httpStats{}
	var ok int64
	for i := range w.recs {
		r := &w.recs[i]
		ms := float64(r.lat.Nanoseconds()) / 1e6
		s.attempted++
		s.lat = append(s.lat, ms)
		s.byKind[r.q.kind] = append(s.byKind[r.q.kind], ms)
		if r.status == http.StatusTooManyRequests {
			s.sheds++
		}
		if msg := o.check(r); msg != "" {
			s.miss("%s", msg)
			continue
		}
		ok++
		switch r.q.kind {
		case qST, qKhop, qFull:
			s.bfs++
			if r.fused {
				s.fused++
				s.lanes = append(s.lanes, float64(r.lanes))
			}
			if r.q.kind == qFull {
				s.fullBytes = append(s.fullBytes, float64(r.bytes))
			}
		}
	}
	s.goodput = float64(ok) / w.elapsed.Seconds()
	return s
}

// runHTTPWorkload is http-mix: bfsd set-up and the closed-loop window,
// then the in-process layers and the kernel sweeps on the same graph.
func runHTTPWorkload(cfg config, rep *report) error {
	tr := (*tracer)(nil)
	if cfg.trace {
		tr = newTracer()
	}
	httpShare := cfg.seconds * 7 / 10
	kernelShare := cfg.seconds - httpShare

	swapG, err := gen.Graph500RMAT(swapVertices, swapEdges, cfg.seed+1, gen.Options{})
	if err != nil {
		return fmt.Errorf("generating swap graph: %w", err)
	}
	swapBody, err := encodeGraph(swapG)
	if err != nil {
		return err
	}
	d, err := startDaemon(cfg.bfsd)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop() // error path: the run already failed
		}
	}()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// Set-up: generate and upload until ready, several times; the last
	// upload is the served graph.
	setupID := tr.id()
	setupStart := time.Now()
	var (
		g                 *graph.CSR
		setups, gens, lds []float64
	)
	for i := 0; i < httpSetupReps; i++ {
		settle()
		t0 := time.Now()
		g, err = gen.Graph500RMAT(httpVertices, httpEdges, cfg.seed, gen.Options{})
		t1 := time.Now()
		tr.leaf(setupID, layerGen, "gen.Graph500RMAT", t0, t1)
		if err != nil {
			return fmt.Errorf("generating graph: %w", err)
		}
		body, err := encodeGraph(g)
		if err == nil {
			err = upload(hc, d.base, "/load?format=bin", body)
		}
		t2 := time.Now()
		tr.leaf(setupID, layerHTTP, "bfsd upload", t1, t2)
		if err != nil {
			return err
		}
		setups = append(setups, t2.Sub(t0).Seconds())
		gens = append(gens, t1.Sub(t0).Seconds())
		lds = append(lds, t2.Sub(t1).Seconds())
	}
	tr.add(setupID, 0, layerBench, "setup", setupStart, time.Now())
	settle()
	inputFacts(g, rep)
	rep.note("setup: %d repetitions, median %.3fs (gen %.3fs, upload until ready %.3fs)", httpSetupReps, median(setups), median(gens), median(lds))

	adj := newSortedAdj(g)
	qs := makeQueries(g, cfg.seed)
	conns := make([]*conn, httpConns)
	for i := range conns {
		conns[i] = &conn{hc: hc, base: d.base, swapBody: swapBody, adj: adj}
	}
	rep.addWarmup(httpWarmGate(conns, qs, rep))

	var st, untraced *httpStats
	orc := newOracle(g, adj, qs)
	if !cfg.trace {
		st = summarize(runLoop(conns, qs, httpShare, nil, 0), orc)
	} else {
		untraced = summarize(runLoop(conns, qs, httpShare*2/5, nil, 0), orc)
		rep.add(&untraced.tally)
		winID := tr.id()
		winStart := time.Now()
		st = summarize(runLoop(conns, qs, httpShare*3/5, tr, winID), orc)
		tr.add(winID, 0, layerBench, "traced HTTP window", winStart, time.Now())
	}
	rep.add(&st.tally)
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}
	rss := maxRSSMB(d.cmd.ProcessState.SysUsage().(*syscall.Rusage))
	hc.CloseIdleConnections()
	settle()

	p50 := median(st.lat)
	tailV, pct, n := tail(st.lat)
	rep.note("HTTP window: %d attempts, %d misses, %d sheds; tail_ms is p%.2f of %d attempts", st.attempted, st.failed, st.sheds, pct, n)
	if !cfg.trace {
		rep.set("goodput", "1/s", st.goodput)
		rep.set("p50_ms", "ms", p50)
		rep.set("tail_ms", "ms", tailV)
		rep.set("setup_s", "s", median(setups))
		rep.set("peak_rss_mb", "MB", rss)
		rep.note("peak_rss_mb is bfsd's peak RSS")
	} else {
		for k := qkind(0); k < numKinds; k++ {
			rep.set("http.p50_ms."+kindNames[k], "ms", median(st.byKind[k]))
		}
		rep.set("http.resp_bytes.full", "bytes", median(st.fullBytes))
		rep.set("http.requests", "count", float64(st.attempted))
		rep.set("serve.shed_frac", "ratio", ratio(float64(st.sheds), float64(st.attempted)))
		rep.set("serve.swap_ms", "ms", median(st.byKind[qSwap]))
		rep.set("serve.fused_frac", "ratio", ratio(float64(st.fused), float64(st.bfs)))
		rep.set("serve.batch_lanes_mean", "count", stats.Summarize(st.lanes).Mean)
		rep.note("serve: %d of %d bfs answers fused; %d swaps; %d sheds of %d attempts", st.fused, st.bfs, len(st.byKind[qSwap]), st.sheds, st.attempted)
		rep.set("trace.overhead_frac", "ratio", ratio(untraced.goodput-st.goodput, untraced.goodput))
		rep.note("trace.overhead_frac: goodput untraced %.1f/s vs traced %.1f/s", untraced.goodput, st.goodput)
		rep.set("setup.gen_s", "s", median(gens))
		rep.set("setup.load_s", "s", median(lds))

		guardSt, err := probeServe(g, qs, orc, tr, rep)
		if err != nil {
			return err
		}
		clientSt := median(st.byKind[qST])
		rep.set("http.overhead.st", "ratio", ratio(clientSt-guardSt, clientSt))
		rep.note("http.overhead.st: client st p50 %.3f ms vs in-process Guard st p50 %.3f ms", clientSt, guardSt)
		if err := probeAnalysis(g, qs, orc, tr, rep); err != nil {
			return err
		}
	}

	// The kernel sweeps on the served graph, in-process, with bfsd gone.
	buildID := tr.id()
	t0 := time.Now()
	ks, err := buildKernelSet(g, false, tr, buildID)
	if err != nil {
		return err
	}
	defer ks.close()
	tr.add(buildID, 0, layerBench, "engines", t0, time.Now())
	if cfg.trace {
		rep.set("setup.engine_s", "s", time.Since(t0).Seconds())
	}
	if err := measureKernel(cfg, ks, kernelShare, tr, rep, false); err != nil {
		return err
	}
	if cfg.trace {
		return finishTrace(cfg, tr, rep)
	}
	return nil
}

// sortedAdj is a copy of a graph's adjacency with every list sorted, so
// the client can test tree edges by binary search.
type sortedAdj struct {
	off   []int64
	edges []int32
}

func newSortedAdj(g *graph.CSR) *sortedAdj {
	a := &sortedAdj{off: g.Offsets, edges: append([]int32(nil), g.Edges...)}
	for v := int32(0); v < g.NumVertices(); v++ {
		l := a.edges[a.off[v]:a.off[v+1]]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return a
}

func (a *sortedAdj) has(u, v int32) bool {
	l := a.edges[a.off[u]:a.off[u+1]]
	i := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	return i < len(l) && l[i] == v
}

// checkTree is graph.ValidateParents with binary-searched edge tests
// (hub parents make the linear scan quadratic).
func (a *sortedAdj) checkTree(src int32, dist, parent []int32) error {
	n := int32(len(a.off) - 1)
	if int32(len(dist)) != n || int32(len(parent)) != n {
		return fmt.Errorf("answer arrays have %d/%d entries, want %d", len(dist), len(parent), n)
	}
	if dist[src] != 0 || parent[src] != src {
		return fmt.Errorf("source %d has dist %d parent %d", src, dist[src], parent[src])
	}
	for v := int32(0); v < n; v++ {
		d, p := dist[v], parent[v]
		switch {
		case v == src:
		case d == graph.Unreached:
			if p != -1 {
				return fmt.Errorf("unreached vertex %d has parent %d", v, p)
			}
		case p < 0 || p >= n || dist[p] != d-1 || !a.has(p, v):
			return fmt.Errorf("vertex %d at level %d has parent %d, not a tree edge", v, d, p)
		}
	}
	return nil
}

// weakComponents counts weakly connected components with a union-find
// over every edge, independently of internal/analysis.
func weakComponents(g *graph.CSR) (count, largest int64) {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := int32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if a, b := find(u), find(v); a != b {
				parent[a] = b
			}
		}
	}
	size := map[int32]int64{}
	for v := int32(0); v < n; v++ {
		size[find(v)]++
	}
	for _, s := range size {
		largest = max(largest, s)
	}
	return int64(len(size)), largest
}

// hashDist is FNV-1a over a distance array.
func hashDist(d []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range d {
		u := uint32(x)
		for i := 0; i < 4; i++ {
			h ^= uint64(u & 0xff)
			h *= 1099511628211
			u >>= 8
		}
	}
	return h
}

// scanObject walks the members of one flat JSON object, handing each
// key and raw value to fn. Arrays and objects come back whole. A full
// answer is ~0.5 MB of JSON; decoding it with encoding/json would cost
// the client milliseconds of CPU on the same two CPUs bfsd serves from,
// so the client scans it in place and decodes only what it checks.
func scanObject(b []byte, fn func(key, raw []byte) error) error {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return errors.New("not an object")
	}
	i++
	for {
		i = skipSpace(b, i)
		if i < len(b) && b[i] == '}' {
			return nil
		}
		if i >= len(b) || b[i] != '"' {
			return errors.New("expected a key")
		}
		end := skipString(b, i)
		key := b[i+1 : end-1]
		i = skipSpace(b, end)
		if i >= len(b) || b[i] != ':' {
			return errors.New("expected ':'")
		}
		i = skipSpace(b, i+1)
		vend := skipValue(b, i)
		if vend <= i {
			return errors.New("truncated value")
		}
		if err := fn(key, b[i:vend]); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		i = skipSpace(b, vend)
		if i < len(b) && b[i] == ',' {
			i++
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string starting at b[i].
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(b)
}

// skipValue returns the index just past the value starting at b[i].
func skipValue(b []byte, i int) int {
	if i >= len(b) {
		return i
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '[', '{':
		depth := 0
		for ; i < len(b); i++ {
			switch b[i] {
			case '"':
				i = skipString(b, i) - 1
			case '[', '{':
				depth++
			case ']', '}':
				depth--
				if depth == 0 {
					return i + 1
				}
			}
		}
		return len(b)
	}
	for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ' ' && b[i] != '\n' {
		i++
	}
	return i
}

// parseInts decodes a JSON array of integers into dst.
func parseInts(raw []byte, dst []int32) ([]int32, error) {
	if len(raw) < 2 || raw[0] != '[' || raw[len(raw)-1] != ']' {
		return dst, errors.New("not an array")
	}
	neg, val, digits := false, int64(0), 0
	for _, c := range raw[1:] {
		switch {
		case c >= '0' && c <= '9':
			val = val*10 + int64(c-'0')
			digits++
		case c == '-':
			neg = true
		case c == ',' || c == ']':
			if digits == 0 {
				if c == ']' && len(dst) == 0 && !neg {
					return dst, nil
				}
				return dst, errors.New("empty element")
			}
			if neg {
				val = -val
			}
			dst = append(dst, int32(val))
			neg, val, digits = false, 0, 0
		case c == ' ' || c == '\n':
		default:
			return dst, fmt.Errorf("unexpected %q", c)
		}
	}
	return dst, nil
}
