package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed region of a traced run. Parent indexes the enclosing
// span (-1 for a root). A span's layer is its name up to the first dot.
type span struct {
	Name       string
	Parent     int
	Start, End time.Time
}

// tracer records spans from the benchmark's own code: around calls to a
// layer's public functions and around the solver's progress events. It
// is not safe for concurrent use; in a multi-rank replay only rank 0
// records.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	t.spans = append(t.spans, span{Name: name, Parent: t.current(), Start: time.Now()})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Now()
}

// add records a completed span under the innermost open one.
func (t *tracer) add(name string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Parent: t.current(), Start: start, End: end})
}

func (t *tracer) current() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		ev := chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
		}
		if s.Parent >= 0 {
			ev.Args = map[string]string{"parent": t.spans[s.Parent].Name}
		}
		evs = append(evs, ev)
	}
	body, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// selfTimes returns each layer's self time: the time of its spans minus
// the time of their direct children.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End.Sub(s.Start).Seconds()
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[layerOf(s.Name)] += s.End.Sub(s.Start).Seconds() - child[i]
	}
	return self
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "%-12s %10s\n", "layer", "self_s")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %10.4f\n", l, self[l])
	}
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}
