package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ilplimit/internal/limits"
)

// ErrInjectedTrap is the sentinel a TrapAtStep plan makes the VM return,
// standing in for a real trap (bad address, division by zero) at a
// reproducible point in the trace.
var ErrInjectedTrap = errors.New("faultinject: injected trap")

// Plan describes one deterministic fault schedule.  The zero value
// injects nothing; each fault arms independently when its trigger field
// is positive.  Sequence numbers refer to vm.Event.Seq, so a fault lands
// on the same dynamic instruction (or, for the consumer faults, the same
// replay chunk — the one holding that instruction) in every run of the
// same program.
type Plan struct {
	// TrapAtStep > 0 aborts the VM run with ErrInjectedTrap at the first
	// cancellation check at or after that step.
	TrapAtStep int64

	// PanicAtSeq > 0 makes consumer PanicConsumer panic immediately
	// before stepping the chunk that holds that sequence number,
	// simulating an analyzer bug on one worker goroutine.
	PanicConsumer int
	PanicAtSeq    int64

	// CorruptAtSeq > 0 mutates the event with that sequence number in the
	// producer's chunk before it is published (address bit flipped,
	// branch outcome inverted) — the fault a broken ring would introduce.
	CorruptAtSeq int64

	// StallAtSeq > 0 makes consumer StallConsumer sleep StallFor before
	// stepping the chunk that holds that sequence number, long enough
	// for the producer to fill every ring slot and block on flow control.
	StallConsumer int
	StallAtSeq    int64
	StallFor      time.Duration

	// SlowEvery > 0 makes consumer SlowConsumer sleep SlowFor once
	// before stepping each chunk that holds a multiple of SlowEvery —
	// steady slow progress rather than the one-shot stall above.
	SlowConsumer int
	SlowEvery    int64
	SlowFor      time.Duration

	// DropFromSeq > 0 makes consumer DropConsumer silently skip every
	// chunk whose last event is at or after that sequence number.  An
	// analyzer fed a truncated trace computes a bogus schedule while its
	// siblings see the whole trace — the cheapest deterministic way to
	// seed a model-ordering invariant violation for limits.CheckOrdering.
	DropConsumer int
	DropFromSeq  int64

	// Once arms each trigger for a single firing across the plan's
	// lifetime.  A plan is normally re-armed by every pipeline pass —
	// the same trap fires again on a harness retry, exhausting the
	// retry budget.  Chaos schedules set Once so an injected transient
	// fault behaves like one: the first attempt fails, the retry runs
	// clean, and the suite converges.
	Once bool

	trapOnce, panicOnce, stallOnce                         atomic.Bool
	trapped, panicked, corrupted, stalled, slowed, dropped atomic.Int64
}

// spent reports (and records) whether a Once plan already fired the
// trigger guarded by armed; non-Once plans always re-fire.
func (p *Plan) spent(armed *atomic.Bool) bool {
	if !p.Once {
		return false
	}
	return !armed.CompareAndSwap(false, true)
}

// StepHook returns a vm.VM StepHook implementing TrapAtStep, or nil when
// the plan injects no trap.
func (p *Plan) StepHook() func(steps int64) error {
	if p.TrapAtStep <= 0 {
		return nil
	}
	return func(steps int64) error {
		if steps < p.TrapAtStep || p.spent(&p.trapOnce) {
			return nil
		}
		p.trapped.Add(1)
		return ErrInjectedTrap
	}
}

// Hooks returns the replay hooks implementing the consumer and chunk
// faults, or nil when the plan touches neither.
func (p *Plan) Hooks() *limits.ReplayHooks {
	h := &limits.ReplayHooks{}
	armed := false
	if p.CorruptAtSeq > 0 {
		armed = true
		h.OnPublish = func(_ int64, c *limits.Chunk) {
			// Chunks are columnar with implicit sequence numbers, so the
			// target event's lane position is base-relative.
			i := int(p.CorruptAtSeq - c.Base())
			if i < 0 || i >= c.Len() {
				return
			}
			// Flip the same trace facts a corrupted raw chunk would
			// have carried: the address bit, the branch outcome, and —
			// since chunks arrive pre-decoded — every lane's
			// misprediction bit, so speculative consumers observe the
			// inverted outcome exactly as if they had re-derived it.
			ev := c.At(i)
			ev.Addr ^= 1
			ev.Flags ^= limits.FlagTaken
			if ev.Flags&limits.FlagBranch != 0 {
				ev.Flags ^= limits.FlagMispredAll
			}
			c.Set(i, ev)
			p.corrupted.Add(1)
		}
	}
	if p.PanicAtSeq > 0 || p.StallAtSeq > 0 || p.SlowEvery > 0 || p.DropFromSeq > 0 {
		armed = true
		h.BeforeChunk = func(id int, c *limits.Chunk) bool {
			first, last := c.Base(), c.Base()+int64(c.Len())-1
			holds := func(seq int64) bool { return first <= seq && seq <= last }
			if p.StallAtSeq > 0 && id == p.StallConsumer && holds(p.StallAtSeq) && !p.spent(&p.stallOnce) {
				p.stalled.Add(1)
				time.Sleep(p.StallFor)
			}
			// Slow is exempt from Once: it delays, never fails, so
			// re-firing across retries cannot burn the retry budget.
			if p.SlowEvery > 0 && id == p.SlowConsumer && last/p.SlowEvery*p.SlowEvery >= first {
				p.slowed.Add(1)
				time.Sleep(p.SlowFor)
			}
			if p.PanicAtSeq > 0 && id == p.PanicConsumer && holds(p.PanicAtSeq) && !p.spent(&p.panicOnce) {
				p.panicked.Add(1)
				panic(fmt.Sprintf("faultinject: planned panic in consumer %d at seq %d", id, p.PanicAtSeq))
			}
			if p.DropFromSeq > 0 && id == p.DropConsumer && last >= p.DropFromSeq {
				p.dropped.Add(int64(c.Len()))
				return true
			}
			return false
		}
	}
	if !armed {
		return nil
	}
	return h
}

// Fired reports which faults actually triggered, for asserting that a
// test exercised the recovery path it meant to.
func (p *Plan) Fired() (trapped, panicked, corrupted, stalled int64) {
	return p.trapped.Load(), p.panicked.Load(), p.corrupted.Load(), p.stalled.Load()
}

// FiredSlow reports how many chunks the slow-consumer plan delayed.
func (p *Plan) FiredSlow() int64 { return p.slowed.Load() }

// FiredDropped reports how many events the drop plan skipped.
func (p *Plan) FiredDropped() int64 { return p.dropped.Load() }
