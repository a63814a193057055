package limits

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// The analyzers of a group are mutually independent: each schedules the
// same dynamic trace under its own model with no shared mutable state.
// Stepping all of them from the VM's visitor callback therefore serializes
// work that is embarrassingly parallel — with 7 models × 2 unroll configs
// the analysis pass costs 14× a single model's wall clock.  Replay instead
// runs the trace producer once, batches events into fixed-size chunks, and
// publishes every chunk through a bounded single-producer/multi-consumer
// broadcast ring; each analyzer drains the ring on its own goroutine at
// its own pace.  Results are bit-identical to the serial path because each
// analyzer still observes the complete trace in order.

const (
	// ChunkEvents is the number of trace events batched per ring slot.
	// Chunking amortizes ring synchronization (a handful of mutex
	// operations per chunk) over thousands of Step calls; 4096 events is
	// 128 KiB per slot, comfortably inside L2.
	ChunkEvents = 4096

	// RingSlots bounds the ring: the producer runs at most RingSlots
	// chunks ahead of the slowest analyzer, capping buffered trace memory
	// at RingSlots × ChunkEvents events (≈1 MiB).
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
	cut     []bool  // per-consumer: detached (panicked or watchdog-killed)
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
	detaches   *telemetry.Counter   // "ring.detaches": consumers removed after a panic or stall
	wdDetaches *telemetry.Counter   // "ring.watchdog_detaches": detaches forced by the stall watchdog
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
		wdDetaches: m.Counter("ring.watchdog_detaches"),
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
// is over.  Chunks handed off to abandoned (watchdog-detached)
// consumers were already replaced at detach and stay with their zombie
// goroutine, so nothing recycled here can still be read.
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
// consumer (its goroutine panicked, or the stall watchdog gave up on it)
// can never block the producer.  Idempotent: only the first detach of a
// consumer counts.
func (r *eventRing) detach(id int) {
	r.mu.Lock()
	r.detachLocked(id, false)
	r.mu.Unlock()
}

// detachLocked is detach with r.mu held.  byWatchdog additionally counts
// the detach against the watchdog metric and covers the one hazard a
// watchdog kill has that a panic does not: the stuck goroutine may wake
// later and keep reading its current chunk, so that chunk's slot gets a
// fresh buffer — the producer recycles the new one while the zombie
// consumer keeps the old backing array to itself.
func (r *eventRing) detachLocked(id int, byWatchdog bool) {
	if r.cut[id] {
		return
	}
	r.cut[id] = true
	if byWatchdog && r.tails[id] < r.head {
		r.slots[r.tails[id]%RingSlots] = getChunk()
	}
	r.tails[id] = int64(1) << 62
	if r.met != nil {
		r.met.detaches.Inc()
		if byWatchdog {
			r.met.wdDetaches.Inc()
		}
	}
	r.avail.Signal()
	r.ready.Broadcast()
}

// RunFunc drives a trace producer under a context; (*vm.VM).RunContext
// satisfies it directly.
type RunFunc func(ctx context.Context, visit func(vm.Event)) error

// ReplayHooks intercept the fan-out at its two seams — the producer's
// publish and the consumers' per-event step — for deterministic fault
// injection (internal/faultinject).  Production replays run without
// hooks; only ReplayFaults installs them.
type ReplayHooks struct {
	// OnPublish runs in the producer goroutine right before chunk
	// (zero-based) becomes visible; it may mutate the columnar chunk's
	// events in place through Chunk.At/Chunk.Set (AnnotatedEvent.Event
	// recovers the raw trace facts).
	OnPublish func(chunk int64, c *Chunk)
	// BeforeStep runs in consumer id's goroutine before each event is
	// stepped; it may stall or panic.
	BeforeStep func(id int, ev AnnotatedEvent)
	// DropStep runs in consumer id's goroutine before each event;
	// returning true skips stepping that event for that consumer only,
	// desynchronizing one analyzer from the trace (the fault behind a
	// seeded model-ordering violation).
	DropStep func(id int, ev AnnotatedEvent) bool
	// Metrics, when non-nil, observes the faulted replay exactly as
	// ReplayObserved would, so fault-injection tests can assert that
	// counters survive a recovery (panic + detach) intact.
	Metrics *telemetry.Registry
}

// ReplayOptions bundles the optional knobs of a replay; the zero value
// is a plain ReplayContext.
type ReplayOptions struct {
	// Metrics, when non-nil, records ring telemetry under "ring."; see
	// ReplayObserved.
	Metrics *telemetry.Registry
	// Hooks installs fault-injection hooks; see ReplayHooks.  When both
	// Metrics fields are set, ReplayOptions.Metrics wins.
	Hooks *ReplayHooks
	// Watchdog, when positive, arms the per-consumer stall watchdog: a
	// consumer that completes no chunk while one is available for this
	// long is detached exactly like a panicked worker — the producer and
	// the surviving analyzers keep going — and the replay returns a
	// *StallError naming the detached consumers.  The stuck goroutine is
	// abandoned; it exits at its next ring interaction.  Only the
	// fan-out path has a watchdog (a single analyzer steps inline in the
	// producer, where there is no independent progress to watch).
	Watchdog time.Duration
	// Sink, when non-nil, additionally streams every published chunk to
	// the trace store as one more ring consumer (see ChunkSink): it
	// observes the same chunks in the same order as the analyzers, its
	// first error detaches it without failing the replay, and on clean
	// completion it receives the nil end-of-stream terminator.  The sink
	// rides the fan-out and single-analyzer chunk paths; the per-event
	// fault-hook path builds no chunks, so there Sink is ignored (the
	// harness never populates the store under fault hooks — a mutated
	// chunk must never be committed as a clean trace).
	Sink ChunkSink
}

// StallError reports consumers detached by the replay watchdog.  The
// surviving analyzers hold complete results, but the replay as a whole
// failed: the stalled analyzers' schedules are partial.
type StallError struct {
	// Consumers are the detached consumer ids, ascending.
	Consumers []int
	// Deadline is the watchdog deadline that expired.
	Deadline time.Duration
}

// Error names the stalled consumers and the deadline they missed.
func (e *StallError) Error() string {
	return fmt.Sprintf("limits: watchdog detached stalled consumer(s) %v: no chunk progress within %v",
		e.Consumers, e.Deadline)
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

// Replay runs the trace source once and fans every event out to all
// analyzers, each consuming on its own goroutine through a bounded
// broadcast ring.  run is called with the visitor to drive exactly as it
// would drive a Group.Visitor (typically run is (*vm.VM).Run).  Replay
// returns run's error after all workers have stopped; on error the
// analyzers' states are partial, exactly as after an aborted serial
// replay.
func Replay(run func(visit func(vm.Event)) error, analyzers ...*Analyzer) error {
	return ReplayContext(context.Background(),
		func(_ context.Context, visit func(vm.Event)) error { return run(visit) },
		analyzers...)
}

// ReplayContext is Replay under a context: the producer is handed ctx (a
// context-aware producer such as vm.RunContext aborts itself with
// vm.ErrCanceled), the ring checks ctx at every chunk boundary, and a
// cancellation wakes both a producer blocked on flow control and
// consumers blocked on an empty ring.  ReplayContext does not return
// until every worker goroutine has stopped, canceled or not.
func ReplayContext(ctx context.Context, run RunFunc, analyzers ...*Analyzer) error {
	return ReplayWith(ctx, ReplayOptions{}, run, analyzers...)
}

// ReplayObserved is ReplayContext with ring telemetry: the replay
// registers its metrics under "ring." in m — chunks/events published,
// producer and per-consumer stall counts, the occupancy high-water
// mark, and a publish→fully-drained latency histogram per chunk (the
// metric catalogue is in DESIGN.md §9).  All recording happens at chunk
// boundaries under the ring's existing mutex, so the per-event path is
// unchanged; a nil m is exactly ReplayContext.
func ReplayObserved(ctx context.Context, m *telemetry.Registry, run RunFunc, analyzers ...*Analyzer) error {
	return ReplayWith(ctx, ReplayOptions{Metrics: m}, run, analyzers...)
}

// ReplayFaults is ReplayContext with fault-injection hooks installed
// (and, when hooks.Metrics is set, ring telemetry).  It exists for
// internal/faultinject's resilience tests; production callers use
// Replay, ReplayContext or ReplayObserved.
func ReplayFaults(ctx context.Context, hooks *ReplayHooks, run RunFunc, analyzers ...*Analyzer) error {
	o := ReplayOptions{Hooks: hooks}
	if hooks != nil {
		o.Metrics = hooks.Metrics
	}
	return ReplayWith(ctx, o, run, analyzers...)
}

// ReplayWith is the fully-general replay: ReplayContext plus whichever
// of o's knobs — ring telemetry, fault hooks, stall watchdog — are set.
// The other Replay variants are thin wrappers over it.
func ReplayWith(ctx context.Context, o ReplayOptions, run RunFunc, analyzers ...*Analyzer) error {
	var beforeStep func(int, AnnotatedEvent)
	var dropStep func(int, AnnotatedEvent) bool
	var onPublish func(int64, *Chunk)
	if o.Hooks != nil {
		beforeStep, dropStep, onPublish = o.Hooks.BeforeStep, o.Hooks.DropStep, o.Hooks.OnPublish
	}
	if o.Metrics == nil && o.Hooks != nil {
		o.Metrics = o.Hooks.Metrics
	}
	switch len(analyzers) {
	case 0:
		return canceledErr(ctx, run(ctx, func(vm.Event) {}))
	case 1:
		// A lone analyzer gains nothing from the ring; annotate into a
		// local chunk and step it inline in the producer, so even the
		// single-analyzer path streams the specialized columnar loop.
		a := analyzers[0]
		an := NewAnnotator(a)
		defer an.flush(o.Metrics)
		if beforeStep != nil || dropStep != nil {
			return canceledErr(ctx, run(ctx, func(ev vm.Event) {
				ae := an.Annotate(ev)
				if beforeStep != nil {
					beforeStep(0, ae)
				}
				if dropStep != nil && dropStep(0, ae) {
					return
				}
				a.StepAnnotated(ae)
			}))
		}
		c := getChunk()
		defer putChunk(c)
		sinkOK := o.Sink != nil
		emit := func() {
			a.StepChunk(c)
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
		panicMu     sync.Mutex
		workerPanic *PanicError
	)
	done := make([]chan struct{}, len(analyzers))
	killed := make([]chan struct{}, len(analyzers))
	for i := range done {
		done[i] = make(chan struct{})
	}
	for i, a := range analyzers {
		go func(id int, a *Analyzer) {
			defer close(done[id])
			defer func() {
				// A panicking Step must not strand the producer waiting
				// for this consumer's slot; capture the first panic (with
				// its stack) and rethrow it from Replay, like the serial
				// path would.
				if p := recover(); p != nil {
					panicMu.Lock()
					if workerPanic == nil {
						workerPanic = &PanicError{Value: p, Stack: debug.Stack()}
					}
					panicMu.Unlock()
					r.detach(id)
				}
			}()
			if beforeStep != nil || dropStep != nil {
				for {
					chunk := r.next(id)
					if chunk == nil {
						return
					}
					for i, n := 0, chunk.Len(); i < n; i++ {
						ae := chunk.At(i)
						if beforeStep != nil {
							beforeStep(id, ae)
						}
						if dropStep != nil && dropStep(id, ae) {
							continue
						}
						a.StepAnnotated(ae)
					}
					r.advance(id)
				}
			}
			for {
				chunk := r.next(id)
				if chunk == nil {
					return
				}
				a.StepChunk(chunk)
				r.advance(id)
			}
		}(i, a)
	}

	// The sink consumer: drains the same broadcast, detaches itself on
	// its first error (or a panic) so a broken store can slow nothing
	// down, and reports whether it survived to the end of the stream.
	var sinkDone chan struct{}
	sinkOK := false
	if sinkID >= 0 {
		sinkDone = make(chan struct{})
		go func() {
			defer close(sinkDone)
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

	// The stall watchdog samples per-consumer chunk progress: a consumer
	// with a chunk available that completes none of it within the
	// deadline is detached like a panicked worker, so one wedged analyzer
	// cannot stall the producer and the surviving consumers forever.
	var stalls struct {
		sync.Mutex
		ids []int
	}
	if o.Watchdog > 0 {
		for i := range killed {
			killed[i] = make(chan struct{})
		}
		stopWd := make(chan struct{})
		defer close(stopWd)
		go func() {
			tick := o.Watchdog / 4
			if tick < time.Millisecond {
				tick = time.Millisecond
			}
			ticker := time.NewTicker(tick)
			defer ticker.Stop()
			lastTail := make([]int64, len(analyzers))
			lastMove := make([]time.Time, len(analyzers))
			start := time.Now()
			for i := range lastMove {
				lastMove[i] = start
			}
			for {
				select {
				case <-stopWd:
					return
				case <-ticker.C:
				}
				var fired []int
				r.mu.Lock()
				now := time.Now()
				for id := range r.tails {
					if id == sinkID {
						// The sink is not watched: a slow store write is
						// I/O pressure, not a wedged analyzer, and killing
						// it would only lose the populate.
						continue
					}
					switch {
					case r.cut[id]:
						// Already detached (panic or earlier firing).
					case r.tails[id] >= r.head:
						// No chunk pending: idle at the ring, not stalled.
						lastTail[id], lastMove[id] = r.tails[id], now
					case r.tails[id] != lastTail[id]:
						lastTail[id], lastMove[id] = r.tails[id], now
					case now.Sub(lastMove[id]) >= o.Watchdog:
						r.detachLocked(id, true)
						fired = append(fired, id)
					}
				}
				r.mu.Unlock()
				for _, id := range fired {
					stalls.Lock()
					stalls.ids = append(stalls.ids, id)
					stalls.Unlock()
					close(killed[id])
				}
			}
		}()
	}

	var err error
	func() {
		// close() runs even if the producer panics, so workers always
		// terminate instead of waiting on the ring forever.
		defer r.close()
		var chunk int64
		dropping := false
		buf := r.reserve()
		dropping = buf == nil
		err = run(ctx, func(ev vm.Event) {
			if dropping {
				// The replay was aborted; a producer that does not watch
				// ctx itself keeps streaming, so drop its events on the
				// floor until it returns.
				return
			}
			buf.Append(an.Annotate(ev))
			if buf.Len() == ChunkEvents {
				if onPublish != nil {
					onPublish(chunk, buf)
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
			if onPublish != nil {
				onPublish(chunk, buf)
			}
			r.publish(buf)
		}
	}()
	// Wait for every worker — except those the watchdog gave up on, whose
	// goroutines are abandoned (they exit at their next ring interaction;
	// their slot buffers were handed off at detach, so the producer never
	// races them).
	for i := range analyzers {
		select {
		case <-done[i]:
		case <-killed[i]: // nil (never ready) unless the watchdog is armed
		}
	}
	if sinkDone != nil {
		<-sinkDone
	}
	panicMu.Lock()
	rethrow := workerPanic
	panicMu.Unlock()
	if rethrow != nil {
		panic(rethrow)
	}
	err = canceledErr(ctx, err)
	stalls.Lock()
	stalled := append([]int(nil), stalls.ids...)
	stalls.Unlock()
	if err == nil && len(stalled) > 0 {
		sort.Ints(stalled)
		return &StallError{Consumers: stalled, Deadline: o.Watchdog}
	}
	if err == nil && len(stalled) == 0 && sinkOK {
		// Clean end of stream: hand the sink its nil terminator so the
		// store may commit the trace as complete.
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

// Run replays the trace source through every analyzer of the group
// concurrently.  It is the parallel counterpart of driving Visitor() from
// the source directly, producing identical Results.
func (g *Group) Run(run func(visit func(vm.Event)) error) error {
	return Replay(run, g.Analyzers...)
}

// RunContext is Run under a context; see ReplayContext.
func (g *Group) RunContext(ctx context.Context, run RunFunc) error {
	return ReplayContext(ctx, run, g.Analyzers...)
}

// RunObserved is RunContext with ring telemetry recorded into m; see
// ReplayObserved.
func (g *Group) RunObserved(ctx context.Context, m *telemetry.Registry, run RunFunc) error {
	return ReplayObserved(ctx, m, run, g.Analyzers...)
}
