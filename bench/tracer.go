package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Parent is the span that was open
// when it began (0 = none); a layer's self time is its span minus the
// spans that name it as parent.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// counter is a count taken at a layer boundary (calls made, mallocs seen).
type counter struct {
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	Count    float64 `json:"count"`
}

// tracer keeps spans and counts in memory and writes them out when the
// benchmark ends. It belongs to the benchmark's own goroutine: spans are
// recorded around calls into the layers, never inside them. A nil tracer
// records nothing, so the same driver runs untraced.
type tracer struct {
	epoch  time.Time
	spans  []span
	counts []counter
	open   []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(wl, layer, name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: wl, Layer: layer, Name: name})
	t.open = append(t.open, id)
	t.spans[id-1].StartNS = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// time runs fn inside a span and returns the span's id.
func (t *tracer) time(wl, layer, name string, fn func()) int {
	id := t.begin(wl, layer, name)
	fn()
	t.end(id)
	return id
}

func (t *tracer) count(wl, layer, name string, n float64) {
	if t == nil {
		return
	}
	t.counts = append(t.counts, counter{wl, layer, name, n})
}

// seconds returns the duration of span id.
func (t *tracer) seconds(id int) float64 {
	s := t.spans[id-1]
	return float64(s.EndNS-s.StartNS) / 1e9
}

// durations returns, in seconds, every span of (workload, layer, name).
func (t *tracer) durations(wl, layer, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Workload == wl && s.Layer == layer && s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// childSeconds sums the spans whose parent is id.
func (t *tracer) childSeconds(id int) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Parent == id {
			total += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return total
}

// total sums every count of (workload, layer, name).
func (t *tracer) total(wl, layer, name string) float64 {
	total := 0.0
	for _, c := range t.counts {
		if c.Workload == wl && c.Layer == layer && c.Name == name {
			total += c.Count
		}
	}
	return total
}

// writeJSONL writes one JSON object per line: spans first, then counts.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i := range t.counts {
		if err := enc.Encode(&t.counts[i]); err != nil {
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
