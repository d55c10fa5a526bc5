package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"spstream/internal/trace"
)

// span is one timed interval at a layer boundary, recorded by the
// bench around a call into that layer. Spans of one slice or window
// share Unit; Parent is the span that caused this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Unit     int    `json:"unit"` // slice ordinal or window number
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer collects spans in memory; they are written once, at exit.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(parent int, name, layer, workload string, unit int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer, Workload: workload, Unit: unit,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// spanHeader carries the client span's id to the wrapped handler.
const spanHeader = "X-Bench-Span"

// reserve hands out a span id before the span has ended, so that the
// id can travel with a request and the spans it causes can name it as
// their parent; finish then records the span under that id.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) finish(id, parent int, name, layer, workload string, unit int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Parent: parent, Name: name, Layer: layer, Workload: workload, Unit: unit,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	}
}

// probe times one direct call into a layer: fn repeats under the
// micro-call rule and the median is returned; when tracing, one span
// of that length is recorded under the layer.
func (t *tracer) probe(name, layer, workload string, fn func()) time.Duration {
	start := time.Now()
	d := repeatMedian(fn)
	if t != nil {
		t.add(0, name, layer, workload, -1, start, start.Add(d))
	}
	return d
}

// sliceSpans records a slice call as a root span with one child per
// Breakdown phase that advanced during it. Breakdown accumulates
// durations, not intervals, so the children carry measured lengths
// laid end to end from the slice's start; what they leave uncovered is
// the slice span's self time — core.unattributed_ms.
func (t *tracer) sliceSpans(workload string, unit int, start time.Time, o sliceObs) {
	root := t.add(0, "slice", "core", workload, unit, start, start.Add(o.wall))
	at := start
	for p, d := range o.phases {
		if d <= 0 {
			continue
		}
		t.add(root, "phase."+phaseKey(trace.Phase(p)), "core", workload, unit, at, at.Add(d))
		at = at.Add(d)
	}
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its children cover (overlapping children are
// not counted twice, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, c := range kids {
			lo, hi := c.StartNS, c.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// layerSelfMS sums self time per layer for one workload, in ms.
func layerSelfMS(spans []span, workload string) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if s.Workload == workload {
			out[s.Layer] += float64(self[s.ID]) / 1e6
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
