package limits

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// The analyzers of a group are mutually independent: each schedules the
// same dynamic trace under its own model with no shared mutable state.
// Stepping all of them from the VM's visitor callback therefore serializes
// work that is embarrassingly parallel — with 7 models × 2 unroll configs
// the analysis pass costs 14× a single model's wall clock.  ReplayWith instead
// runs the trace producer once, batches events into fixed-size chunks, and
// publishes every chunk through a bounded single-producer/multi-consumer
// broadcast ring; each analyzer drains the ring on its own goroutine at
// its own pace.  Results are bit-identical to the serial loop because each
// analyzer still observes the complete trace in order.

const (
	// ChunkEvents is the number of trace events batched per ring slot.
	// Chunking amortizes ring synchronization (a handful of mutex
	// operations per chunk) over thousands of Step calls; at 12 bytes per
	// columnar event, 4096 events is 48 KiB per slot, comfortably inside
	// L2.
	ChunkEvents = 4096

	// RingSlots bounds the ring: the producer runs at most RingSlots
	// chunks ahead of the slowest analyzer, capping buffered trace memory
	// at RingSlots × ChunkEvents events (384 KiB).
	RingSlots = 8
)

// eventRing is a bounded single-producer/multi-consumer broadcast ring of
// pre-decoded columnar event chunks.  Every consumer observes every
// chunk, in order.  Slot chunks are recycled: the producer reuses a slot
// only after all consumers have drained the chunk that last occupied it,
// so a full replay holds RingSlots chunks total (drawn from chunkPool
// and returned at the end).
type eventRing struct {
	mu    sync.Mutex
	avail *sync.Cond // producer waits here for a free slot
	ready *sync.Cond // consumers wait here for the next chunk (or close)

	slots   [RingSlots]*Chunk
	head    int64   // chunks published so far
	tails   []int64 // per-consumer chunks fully consumed
	cut     []bool  // per-consumer: detached (panicked, or a failed sink)
	closed  bool
	aborted bool
	met     *ringMetrics // nil unless the replay is observed
}

// ringMetrics holds the ring's telemetry handles, resolved once per
// replay so the ring operations pay atomic adds, not map lookups.  All
// updates happen at chunk granularity (every ChunkEvents events) under
// the mutex the ring already holds, so observation adds no per-event
// work and no new synchronization.
type ringMetrics struct {
	chunks     *telemetry.Counter   // "ring.chunks": chunks published
	events     *telemetry.Counter   // "ring.events": events published
	prodStalls *telemetry.Counter   // "ring.producer_stalls": reserves that blocked
	consStalls *telemetry.Counter   // "ring.consumer_stalls": nexts that blocked, all consumers
	detaches   *telemetry.Counter   // "ring.detaches": consumers removed after a panic or sink error
	occupancy  *telemetry.Gauge     // "ring.occupancy_hwm": high-water mark of buffered chunks
	latency    *telemetry.Histogram // "ring.chunk_latency_ns": publish→fully-drained per chunk
	perCons    []*telemetry.Counter // "ring.consumerNN.stalls": per-analyzer stall counts
	pubNs      [RingSlots]int64     // publish timestamp of the chunk occupying each slot
}

func newRingMetrics(m *telemetry.Registry, consumers int) *ringMetrics {
	if m == nil {
		return nil
	}
	rm := &ringMetrics{
		chunks:     m.Counter("ring.chunks"),
		events:     m.Counter("ring.events"),
		prodStalls: m.Counter("ring.producer_stalls"),
		consStalls: m.Counter("ring.consumer_stalls"),
		detaches:   m.Counter("ring.detaches"),
		occupancy:  m.Gauge("ring.occupancy_hwm"),
		latency:    m.Histogram("ring.chunk_latency_ns", telemetry.LatencyBuckets),
	}
	for i := 0; i < consumers; i++ {
		rm.perCons = append(rm.perCons, m.Counter(fmt.Sprintf("ring.consumer%02d.stalls", i)))
	}
	return rm
}

func newEventRing(consumers int, met *ringMetrics) *eventRing {
	r := &eventRing{tails: make([]int64, consumers), cut: make([]bool, consumers), met: met}
	r.avail = sync.NewCond(&r.mu)
	r.ready = sync.NewCond(&r.mu)
	for i := range r.slots {
		r.slots[i] = getChunk()
	}
	return r
}

// recycle returns the ring's slot chunks to chunkPool once the replay
// is over; every consumer goroutine has stopped by then, so nothing
// recycled here can still be read.
func (r *eventRing) recycle() {
	r.mu.Lock()
	for i := range r.slots {
		if r.slots[i] != nil {
			putChunk(r.slots[i])
			r.slots[i] = nil
		}
	}
	r.mu.Unlock()
}

func (r *eventRing) minTail() int64 {
	min := r.tails[0]
	for _, t := range r.tails[1:] {
		if t < min {
			min = t
		}
	}
	return min
}

// reserve returns an empty chunk for the producer to fill, waiting until
// every consumer has drained the chunk that previously occupied its
// slot.  It returns nil once the ring is aborted, so a producer blocked
// on flow control cannot outlive a canceled replay.
func (r *eventRing) reserve() *Chunk {
	r.mu.Lock()
	if r.met != nil && r.minTail()+RingSlots <= r.head && !r.aborted {
		r.met.prodStalls.Inc()
	}
	for r.minTail()+RingSlots <= r.head && !r.aborted {
		r.avail.Wait()
	}
	if r.aborted {
		r.mu.Unlock()
		return nil
	}
	buf := r.slots[r.head%RingSlots]
	r.mu.Unlock()
	buf.Reset()
	return buf
}

// publish makes the chunk built in a reserve()d slot visible to every
// consumer.
func (r *eventRing) publish(buf *Chunk) {
	r.mu.Lock()
	if !r.aborted {
		r.slots[r.head%RingSlots] = buf
		r.head++
		if r.met != nil {
			r.met.chunks.Inc()
			r.met.events.Add(int64(buf.Len()))
			r.met.occupancy.SetMax(r.head - r.minTail())
			r.met.pubNs[(r.head-1)%RingSlots] = time.Now().UnixNano()
		}
		r.ready.Broadcast()
	}
	r.mu.Unlock()
}

// close marks the end of the stream; consumers drain what was published
// and then stop.
func (r *eventRing) close() {
	r.mu.Lock()
	r.closed = true
	r.ready.Broadcast()
	r.mu.Unlock()
}

// abort marks the stream aborted: the producer stops publishing and every
// consumer stops at its next chunk boundary, whatever is still buffered.
// Used to tear the flow down on context cancellation, where neither side
// should wait for the other.
func (r *eventRing) abort() {
	r.mu.Lock()
	r.aborted = true
	r.avail.Broadcast()
	r.ready.Broadcast()
	r.mu.Unlock()
}

// next returns consumer id's next chunk, or nil at end of stream (or
// once the consumer has been detached).  The consumer must call advance
// after processing the chunk.
func (r *eventRing) next(id int) *Chunk {
	r.mu.Lock()
	if r.met != nil && r.tails[id] == r.head && !r.closed && !r.aborted && !r.cut[id] {
		r.met.consStalls.Inc()
		r.met.perCons[id].Inc()
	}
	for r.tails[id] == r.head && !r.closed && !r.aborted && !r.cut[id] {
		r.ready.Wait()
	}
	if r.tails[id] == r.head || r.aborted || r.cut[id] {
		r.mu.Unlock()
		return nil
	}
	buf := r.slots[r.tails[id]%RingSlots]
	r.mu.Unlock()
	return buf
}

// advance releases consumer id's current chunk, potentially freeing its
// slot for the producer.  A detached consumer's advance is a no-op: its
// tail is already parked past every chunk.
func (r *eventRing) advance(id int) {
	r.mu.Lock()
	if r.cut[id] {
		r.mu.Unlock()
		return
	}
	var oldMin int64
	if r.met != nil {
		oldMin = r.minTail()
	}
	r.tails[id]++
	if r.met != nil {
		// The chunks this advance fully drained (minTail moved past
		// them) complete their broadcast now; their publish stamps are
		// still valid because the producer cannot reuse a slot before
		// it is freed here.
		if newMin := r.minTail(); newMin > oldMin {
			now := time.Now().UnixNano()
			for c := oldMin; c < newMin && c < r.head; c++ {
				r.met.latency.Observe(now - r.met.pubNs[c%RingSlots])
			}
		}
	}
	r.avail.Signal()
	r.mu.Unlock()
}

// detach removes consumer id from the flow-control accounting so a dead
// consumer (its goroutine panicked, or its sink failed) can never block
// the producer.  Idempotent: only the first detach of a consumer counts.
func (r *eventRing) detach(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cut[id] {
		return
	}
	r.cut[id] = true
	r.tails[id] = int64(1) << 62
	if r.met != nil {
		r.met.detaches.Inc()
	}
	r.avail.Signal()
	r.ready.Broadcast()
}

// RunFunc drives a trace producer under a context; (*vm.VM).RunContext
// satisfies it directly.
type RunFunc func(ctx context.Context, visit func(vm.Event)) error

// ReplayHooks intercept a replay at its two seams — the producer's
// publish and each consumer's chunk step — for deterministic fault
// injection (internal/faultinject).  Production replays run without
// hooks.  Both seams fire at chunk granularity on the single-analyzer
// loop and the fan-out alike, so a hook plan behaves the same on both.
type ReplayHooks struct {
	// OnPublish runs in the producer goroutine right before chunk
	// (zero-based) becomes visible; it may mutate the columnar chunk's
	// events in place through Chunk.At/Chunk.Set (AnnotatedEvent.Event
	// recovers the raw trace facts).
	OnPublish func(chunk int64, c *Chunk)
	// BeforeChunk runs in consumer id's goroutine before the consumer
	// steps c; it may stall or panic, and returning true skips the chunk
	// for that consumer only, desynchronizing one analyzer from the
	// trace (the fault behind a seeded model-ordering violation).
	BeforeChunk func(id int, c *Chunk) (skip bool)
}

// ReplayOptions bundles the optional knobs of a replay; the zero value
// is a plain ReplayContext.
type ReplayOptions struct {
	// Metrics, when non-nil, records the decode counters under "decode."
	// and, on the fan-out, ring telemetry under "ring." — chunks/events
	// published, producer and per-consumer stall counts, detaches, the
	// occupancy high-water mark, and a publish→fully-drained latency
	// histogram per chunk (the catalogue is in DESIGN.md §9).  All ring
	// recording happens at chunk boundaries under the ring's existing
	// mutex, so the per-event path is unchanged.
	Metrics *telemetry.Registry
	// Hooks installs fault-injection hooks; see ReplayHooks.
	Hooks *ReplayHooks
	// Sink, when non-nil, additionally streams every published chunk to
	// the trace store (see ChunkSink): on the fan-out it is one more
	// ring consumer, observing the same chunks in the same order as the
	// analyzers; its first error detaches it without failing the
	// replay, and on clean completion it receives the nil end-of-stream
	// terminator.  The harness never populates the store while hooks
	// are armed — a mutated chunk must never be committed as a clean
	// trace.
	Sink ChunkSink
}

// PanicError carries a panic raised on an analyzer worker goroutine
// together with the stack where it fired, so a recover() at the suite
// boundary can report the faulting analyzer rather than the rethrow site.
type PanicError struct {
	Value interface{}
	Stack []byte
}

// Error renders the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("analyzer panic: %v", e.Value) }

// ReplayContext is ReplayWith with no options.
func ReplayContext(ctx context.Context, run RunFunc, analyzers ...*Analyzer) error {
	return ReplayWith(ctx, ReplayOptions{}, run, analyzers...)
}

// ReplayWith runs the trace source once and schedules every event
// through all analyzers.  Events are annotated once on the producer
// side and batched into columnar chunks.  A single analyzer steps each
// chunk inline on the caller's goroutine; two or more fan out, each
// consuming on its own goroutine through a bounded broadcast ring.
// run is handed ctx (a context-aware producer such as vm.RunContext
// aborts itself with vm.ErrCanceled), the fan-out checks ctx at every
// chunk boundary, and a cancellation wakes both a producer blocked on
// flow control and consumers blocked on an empty ring.  A worker panic
// detaches that consumer and is rethrown as a *PanicError once the
// others finish; a lone analyzer's panic unwinds the caller's goroutine
// unchanged.  ReplayWith returns run's error after every worker has
// stopped; on error the analyzers' states are partial.
func ReplayWith(ctx context.Context, o ReplayOptions, run RunFunc, analyzers ...*Analyzer) error {
	if len(analyzers) < 2 {
		// A lone analyzer gains nothing from the ring.
		return serialReplay(ctx, o, run, analyzers)
	}
	var hooks ReplayHooks
	if o.Hooks != nil {
		hooks = *o.Hooks
	}

	an := NewAnnotator(analyzers...)
	defer an.flush(o.Metrics)
	// The trace-store sink is one more ring consumer: it sees every
	// chunk in order under the same flow control, so spilling the trace
	// to disk overlaps the analyzers' stepping instead of serializing
	// after it.
	nCons := len(analyzers)
	sinkID := -1
	if o.Sink != nil {
		sinkID = nCons
		nCons++
	}
	r := newEventRing(nCons, newRingMetrics(o.Metrics, nCons))
	defer r.recycle()
	// A canceled context must unblock a producer waiting for a free slot
	// and consumers waiting for the next chunk; condition variables cannot
	// select on ctx.Done(), so a watcher trips the ring's abort flag.
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				r.abort()
			case <-stop:
			}
		}()
	}

	var (
		wg          sync.WaitGroup
		panicMu     sync.Mutex
		workerPanic *PanicError
	)
	for i, a := range analyzers {
		wg.Add(1)
		go func(id int, a *Analyzer) {
			defer wg.Done()
			defer func() {
				// A panicking Step must not strand the producer waiting
				// for this consumer's slot; capture the first panic (with
				// its stack) and rethrow it once every worker has stopped.
				if p := recover(); p != nil {
					panicMu.Lock()
					if workerPanic == nil {
						workerPanic = &PanicError{Value: p, Stack: debug.Stack()}
					}
					panicMu.Unlock()
					r.detach(id)
				}
			}()
			for {
				chunk := r.next(id)
				if chunk == nil {
					return
				}
				if hooks.BeforeChunk == nil || !hooks.BeforeChunk(id, chunk) {
					a.StepChunk(chunk)
				}
				r.advance(id)
			}
		}(i, a)
	}

	// The sink consumer: drains the same broadcast, detaches itself on
	// its first error (or a panic) so a broken store can slow nothing
	// down, and reports whether it survived to the end of the stream.
	sinkOK := false
	if sinkID >= 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					r.detach(sinkID)
				}
			}()
			for {
				chunk := r.next(sinkID)
				if chunk == nil {
					r.mu.Lock()
					sinkOK = !r.cut[sinkID] && !r.aborted
					r.mu.Unlock()
					return
				}
				if o.Sink(chunk) != nil {
					r.detach(sinkID)
					return
				}
				r.advance(sinkID)
			}
		}()
	}

	var err error
	func() {
		// close() runs even if the producer panics, so workers always
		// terminate instead of waiting on the ring forever.
		defer r.close()
		var chunk int64
		buf := r.reserve()
		dropping := buf == nil
		err = run(ctx, func(ev vm.Event) {
			if dropping {
				// The replay was aborted; a producer that does not watch
				// ctx itself keeps streaming, so drop its events on the
				// floor until it returns.
				return
			}
			buf.Append(an.Annotate(ev))
			if buf.Len() == ChunkEvents {
				if hooks.OnPublish != nil {
					hooks.OnPublish(chunk, buf)
				}
				r.publish(buf)
				chunk++
				// The per-chunk cancellation point: stop publishing as
				// soon as the context dies, even mid-trace.
				if ctx.Err() != nil {
					dropping = true
					return
				}
				buf = r.reserve()
				dropping = buf == nil
			}
		})
		if err == nil && !dropping && buf.Len() > 0 {
			if hooks.OnPublish != nil {
				hooks.OnPublish(chunk, buf)
			}
			r.publish(buf)
		}
	}()
	wg.Wait()
	if workerPanic != nil {
		panic(workerPanic)
	}
	err = canceledErr(ctx, err)
	if err == nil && sinkOK {
		// Clean end of stream: hand the sink its nil terminator so the
		// store may commit the trace as complete.
		_ = o.Sink(nil)
	}
	return err
}

// SerialReplayWith drives the trace source through every analyzer on
// the caller's goroutine — the loop ReplayWith uses for a single
// analyzer, kept as the single-goroutine baseline the fan-out is
// measured against.  Each full chunk is stepped through every analyzer
// and then handed to sink (nil for none), with the nil end-of-stream
// terminator on clean completion (see ChunkSink).  Results are
// identical to ReplayWith's.
func SerialReplayWith(ctx context.Context, sink ChunkSink, run RunFunc, analyzers ...*Analyzer) error {
	return serialReplay(ctx, ReplayOptions{Sink: sink}, run, analyzers)
}

// serialReplay is the single-goroutine replay: events are annotated once
// into a columnar chunk and each full chunk runs through every
// analyzer's specialized stepper (StepChunk), then o.Sink.  The trailing
// partial chunk is flushed when the producer returns, successful or
// not.  Hooks fire per chunk exactly as on the fan-out, and a panic
// propagates unchanged on the caller's goroutine.  With no analyzers
// the producer runs without annotation and the sink is not called.
func serialReplay(ctx context.Context, o ReplayOptions, run RunFunc, analyzers []*Analyzer) error {
	if len(analyzers) == 0 {
		return canceledErr(ctx, run(ctx, func(vm.Event) {}))
	}
	var hooks ReplayHooks
	if o.Hooks != nil {
		hooks = *o.Hooks
	}
	an := NewAnnotator(analyzers...)
	defer an.flush(o.Metrics)
	c := getChunk()
	defer putChunk(c)
	var chunk int64
	sinkOK := o.Sink != nil
	emit := func() {
		if hooks.OnPublish != nil {
			hooks.OnPublish(chunk, c)
		}
		chunk++
		for id, a := range analyzers {
			if hooks.BeforeChunk == nil || !hooks.BeforeChunk(id, c) {
				a.StepChunk(c)
			}
		}
		if sinkOK && o.Sink(c) != nil {
			sinkOK = false
		}
	}
	err := run(ctx, func(ev vm.Event) {
		c.Append(an.Annotate(ev))
		if c.Len() == ChunkEvents {
			emit()
			c.Reset()
		}
	})
	if c.Len() > 0 {
		emit()
	}
	err = canceledErr(ctx, err)
	if err == nil && sinkOK {
		_ = o.Sink(nil)
	}
	return err
}

// canceledErr maps a nil producer error under a dead context to
// vm.ErrCanceled, so a producer that does not watch ctx itself still
// reports the replay as canceled rather than complete.
func canceledErr(ctx context.Context, err error) error {
	if err == nil && ctx.Err() != nil {
		return fmt.Errorf("%w: %v", vm.ErrCanceled, ctx.Err())
	}
	return err
}
