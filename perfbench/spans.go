package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one update share its
// update number; client requests and session opens carry update -1 and
// are their own roots.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Update int           `json:"update"` // -1 outside any update
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's origin
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced configuration: every call is a no-op returning id -1.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(layer, name string, parent, update int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Update: update,
		Layer: layer, Name: name, Start: now, End: now})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(layer, name string, parent, update int, fn func() error) error {
	id := t.begin(layer, name, parent, update)
	defer t.end(id)
	return fn()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, indexed by span id: its
// duration minus the part of its interval that the union of its
// children covers. Overlapping children are counted once, and a child
// running past its parent is clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) that the union of the spans covers.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per layer over the spans that belong to an
// update.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.Update >= 0 {
			out[s.Layer] += self[i]
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
