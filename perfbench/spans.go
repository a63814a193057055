package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary.  Spans of one pass share
// Root, the ID of the pass span; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Root   int    `json:"root"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run writes them out.  It is
// safe for concurrent use: suite passes record benchmark spans from
// several jobs at once.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name, StartNs: now})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = now
	return t.spans[id-1].dur()
}

// call times f as a span under parent.
func (t *tracer) call(name string, parent int, f func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	err := f()
	return t.end(id), err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.  Children that overlap
// each other (benchmarks running as concurrent jobs) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		cur := s.StartNs // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.StartNs, cur), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// leafCoverage returns the share of root's wall time that the leaf
// spans of its tree (layer calls, which have no children) account for:
// 1 minus the self time of root and of every span with children, the
// time spent outside any layer call.  It means that only for a tree
// whose spans run one after another.
func leafCoverage(spans []span, root int) float64 {
	parents := make(map[int]bool)
	for _, s := range spans {
		if s.Root == root && s.Parent > 0 {
			parents[s.Parent] = true
		}
	}
	self := selfTimes(spans)
	var wall, gaps time.Duration
	for _, s := range spans {
		if s.ID == root {
			wall = s.dur()
		}
		if s.Root == root && parents[s.ID] {
			gaps += self[s.ID]
		}
	}
	if wall <= 0 {
		return 0
	}
	return 1 - gaps.Seconds()/wall.Seconds()
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
