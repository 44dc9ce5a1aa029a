package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one recorded call into a planarcert module. Spans of one
// operation share a trace id; parent is the index of the enclosing
// span, or -1.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Nodes  int    `json:"nodes,omitempty"`
}

// tracer keeps spans in memory for the whole run. It records only
// around calls the benchmark itself makes; the program is not
// instrumented. Not safe for concurrent use.
type tracer struct {
	origin time.Time
	spans  []span
	allocs []uint64 // heap allocation count at begin, by span index
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// begin opens a span and returns its index. nodes is the input size the
// span's work scales with (0 if none). The allocation counter is read
// before the clock starts, so its cost stays outside the span.
func (t *tracer) begin(name string, trace, parent, nodes int) int {
	t.allocs = append(t.allocs, heapAllocs())
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Nodes: nodes,
		Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.origin))
	t.spans[id].Allocs = heapAllocs() - t.allocs[id]
}

// call runs f as a span; on a nil tracer it only runs f.
func (t *tracer) call(name string, trace, parent, nodes int, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.begin(name, trace, parent, nodes)
	err := f()
	t.end(id)
	return err
}

// sums returns the summed duration in milliseconds of the spans called
// name, by trace id.
func (t *tracer) sums(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Trace] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// perTrace returns the per-trace sums of the spans called name, in
// trace order.
func (t *tracer) perTrace(name string) []float64 {
	sums := t.sums(name)
	ids := make([]int, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = sums[id]
	}
	return out
}

// allocsPerNode is the heap allocations of all spans called name per
// node of their inputs.
func (t *tracer) allocsPerNode(name string) float64 {
	var allocs uint64
	var nodes int
	for _, s := range t.spans {
		if s.Name == name {
			allocs += s.Allocs
			nodes += s.Nodes
		}
	}
	if nodes == 0 {
		return 0
	}
	return float64(allocs) / float64(nodes)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
