package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.  The zero value
// is ready to use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.  No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.  No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// AddDuration adds a duration in nanoseconds, the convention for every
// *_ns counter.  No-op on a nil counter.
func (c *Counter) AddDuration(d time.Duration) { c.Add(d.Nanoseconds()) }

// Gauge is an atomic last-value (Set) or high-water (SetMax) gauge.  The
// zero value is ready to use; a nil *Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.  No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value, making
// the gauge a high-water mark.  No-op on a nil gauge.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets.  Bucket i counts
// observations v with v <= Bounds[i] (and > Bounds[i-1]); one overflow
// bucket counts v > Bounds[len-1].  Bounds are fixed at construction so
// Observe never allocates.  A nil *Histogram discards all observations.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// LatencyBuckets are the default nanosecond bounds for latency
// histograms: 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s.
var LatencyBuckets = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.  No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Registry is a named collection of metrics.  The zero value is not
// usable — construct with NewRegistry — but a nil *Registry is: every
// method no-ops (returning nil handles), which is the disabled fast
// path the hot loops rely on.  All methods are safe for concurrent use.
type Registry struct {
	root   *registryState
	prefix string
}

type registryState struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{root: &registryState{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}}
}

// WithPrefix returns a view of the registry that prepends prefix to
// every metric name, sharing the underlying metric table.  On a nil
// registry it returns nil, so scoping propagates the disabled state.
func (r *Registry) WithPrefix(prefix string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{root: r.root, prefix: r.prefix + prefix}
}

// Counter returns the counter with the given name, creating it on first
// use.  Repeated calls with one name return the same counter.  Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	c, ok := r.root.counters[name]
	if !ok {
		c = &Counter{}
		r.root.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use.  Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	g, ok := r.root.gauges[name]
	if !ok {
		g = &Gauge{}
		r.root.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket bounds (ascending) on first use; later calls ignore
// bounds and return the existing histogram.  Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.root.mu.Lock()
	defer r.root.mu.Unlock()
	h, ok := r.root.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.root.histograms[name] = h
	}
	return h
}
