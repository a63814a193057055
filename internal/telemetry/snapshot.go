package telemetry

import (
	"expvar"
	"sort"
	"strings"
)

// SchemaVersion identifies the wire schema of Snapshot and of the
// benchmark baseline (BENCH_limits.json, cmd/benchjson).  Bump it when a
// field changes meaning, so committed JSON stays diffable across tool
// versions.
const SchemaVersion = 1

// HistogramSnapshot is the immutable capture of one histogram.
type HistogramSnapshot struct {
	// Bounds are the upper bounds of the buckets; Counts has one extra
	// trailing element for observations above the last bound.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	// Count and Sum aggregate all observations (Sum/Count is the mean).
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// Snapshot is a point-in-time capture of a registry, suitable for
// embedding in results and for JSON emission (map keys marshal sorted,
// so encoded snapshots diff cleanly).
type Snapshot struct {
	SchemaVersion int                          `json:"schema_version"`
	Counters      map[string]int64             `json:"counters,omitempty"`
	Gauges        map[string]int64             `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.  On a nil registry it
// returns nil.  Concurrent updates during the capture are safe (each
// load is atomic) but the snapshot is not a consistent cut across
// metrics.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	s := &Snapshot{
		SchemaVersion: SchemaVersion,
		Counters:      make(map[string]int64, len(r.root.counters)),
		Gauges:        make(map[string]int64, len(r.root.gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.root.histograms)),
	}
	for name, c := range r.root.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.root.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.root.histograms {
		hs := HistogramSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.buckets)),
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// Filter returns a copy of the snapshot keeping only metrics whose name
// starts with prefix, with the prefix stripped.  A nil snapshot filters
// to nil.
func (s *Snapshot) Filter(prefix string) *Snapshot {
	if s == nil {
		return nil
	}
	out := &Snapshot{
		SchemaVersion: s.SchemaVersion,
		Counters:      make(map[string]int64),
		Gauges:        make(map[string]int64),
		Histograms:    make(map[string]HistogramSnapshot),
	}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			out.Counters[strings.TrimPrefix(name, prefix)] = v
		}
	}
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, prefix) {
			out.Gauges[strings.TrimPrefix(name, prefix)] = v
		}
	}
	for name, v := range s.Histograms {
		if strings.HasPrefix(name, prefix) {
			out.Histograms[strings.TrimPrefix(name, prefix)] = v
		}
	}
	return out
}

// CounterNames returns the counter names in sorted order, for
// deterministic rendering.
func (s *Snapshot) CounterNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PublishExpvar publishes the registry under the given expvar name, so
// an HTTP server with the expvar handler (/debug/vars) serves a live
// snapshot on every request.  Publishing the same name twice panics
// (an expvar restriction), so call it once per process.  No-op on a nil
// registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} { return r.Snapshot() }))
}
