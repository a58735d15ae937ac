package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Layers the benchmark records spans for. Each span wraps one call the
// benchmark makes into the program, named after the exported function.
const (
	layerBench    = "bench"    // benchmark bookkeeping: windows, rounds
	layerGen      = "gen"      // internal/gen graph generation
	layerGraph    = "graph"    // engine construction (NewEngine, NewMSEngine, transpose)
	layerCore     = "core"     // Engine.Run / RunGoal
	layerMSBFS    = "msbfs"    // MSEngine.Run
	layerServe    = "serve"    // Guard.QueryGoal, Registry.Begin/Release
	layerAnalysis = "analysis" // analysis.Eccentricities / Components
	layerHTTP     = "http"     // one bfsd request, client side
	layerValidate = "validate" // correctness checks after a timed call
)

// traceLayers lists every layer in report order.
var traceLayers = []string{layerBench, layerGen, layerGraph, layerCore, layerMSBFS,
	layerServe, layerAnalysis, layerHTTP, layerValidate}

// span is one recorded call: the layer it entered, the call, when it
// ran, and the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed paths carry the
// same code with or without tracing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span id, so children recorded before their parent
// closes can name it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}

// leaf records a span with no children in one call.
func (t *tracer) leaf(parent int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(t.id(), parent, layer, name, start, end)
}

// selfTime sums, per layer, each span's duration minus the part of it
// that its children cover (children of concurrent requests may overlap,
// so the covered part is the union of their intervals).
func (t *tracer) selfTime() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		curS, curE := int64(-1), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				covered += curE - curS
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		covered += curE - curS
		out[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"layers": traceLayers, "spans": t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
