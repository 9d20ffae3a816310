package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request or replayed object share Root; Parent links to the caller.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Root   int64  `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	Dur    int64  `json:"dur_ns"`
	Units  int    `json:"units,omitempty"` // bytes, sectors or tracks the call handled
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// ref identifies an open span.
type ref struct {
	id, root int64
	start    time.Time
}

// begin opens a span under parent (zero ref = new root).
func (t *tracer) begin(parent ref) ref {
	if t == nil {
		return ref{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	root := parent.root
	if root == 0 {
		root = id
	}
	return ref{id: id, root: root, start: time.Now()}
}

// end closes r and returns its duration.
func (t *tracer) end(r ref, parent ref, name string, units int) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(r.start)
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: r.id, Parent: parent.id, Root: r.root, Name: name,
		Start: r.start.Sub(t.origin).Nanoseconds(), Dur: d.Nanoseconds(), Units: units,
	})
	t.mu.Unlock()
	return d
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// spanStats sums the time and units of the spans named name.
func (t *tracer) spanStats(name string) (total time.Duration, units int) {
	for _, s := range t.spans {
		if s.Name == name {
			total += time.Duration(s.Dur)
			units += s.Units
		}
	}
	return total, units
}

// costPerSpan measures what recording one span costs on this host, so
// the traced run can state its own overhead.
func costPerSpan() time.Duration {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r := t.begin(ref{})
		t.end(r, ref{}, "probe", 0)
	}
	return time.Since(t0) / n
}
