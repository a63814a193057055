package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ilplimit/internal/iofault"
)

// Chaos is one seeded composition of the repo's fault planes: a
// per-benchmark pipeline fault plan (VM trap, analyzer panic, slow
// consumer, or nothing) plus an I/O fault plan for the run journal's
// filesystem.  Everything derives deterministically from the seed, so a
// chaos run is reproducible: the same seed schedules the same faults at
// the same points.
//
// Only recoverable faults are scheduled.  Traps and panics are
// transient (the harness retry policy re-runs them, and Once-armed
// plans let the retry succeed); slow consumers merely delay.  Faults
// that would corrupt results — chunk corruption, dropped events — are
// deliberately excluded: those must surface as invariant violations,
// which are deterministic and would (correctly) fail the run rather
// than converge.
type Chaos struct {
	// Seed is the schedule's root seed, echoed in summaries.
	Seed int64

	benches map[string]*Plan
	order   []string
	io      *iofault.Plan
}

// NewChaos derives a chaos schedule for the named benchmarks from seed.
// The benchmark list's order matters: the same names in the same order
// reproduce the same schedule.
func NewChaos(seed int64, benches []string) *Chaos {
	rng := rand.New(rand.NewSource(seed))
	c := &Chaos{Seed: seed, benches: make(map[string]*Plan, len(benches))}
	for _, name := range benches {
		c.order = append(c.order, name)
		var p *Plan
		switch rng.Intn(4) {
		case 0:
			// Trap partway into a VM pass: the profile or analysis run
			// aborts with ErrInjectedTrap and the attempt is retried.
			p = &Plan{Once: true, TrapAtStep: 50 + rng.Int63n(2000)}
		case 1:
			// One analyzer goroutine panics mid-replay; Replay converts
			// it to a transient PanicError.
			p = &Plan{Once: true, PanicConsumer: rng.Intn(4), PanicAtSeq: 1 + rng.Int63n(500)}
		case 2:
			// A consumer runs slow but keeps moving — exercises flow
			// control.  Never a failure.
			p = &Plan{Once: true, SlowConsumer: rng.Intn(4), SlowEvery: 512, SlowFor: time.Millisecond}
		default:
			// No pipeline fault for this benchmark this run.
		}
		c.benches[name] = p
	}
	// The journal's disk: a small budget of write-plane faults.  Sync
	// lies and torn renames are exercised by the dedicated journal and
	// trace tests; in a live chaos run a sync lie is indistinguishable
	// from success without a real crash, so the soak schedules the
	// faults whose recovery it can observe: failed and torn writes.
	c.io = iofault.NewPlan(rng.Int63())
	c.io.MaxFaults = 2
	c.io.SetRate(iofault.KindShortWrite, 0.02)
	c.io.SetRate(iofault.KindWriteEIO, 0.02)
	c.io.SetRate(iofault.KindWriteENOSPC, 0.01)
	return c
}

// BenchPlan returns the pipeline fault plan scheduled for the named
// benchmark, or nil when the schedule leaves it alone.  It has the
// signature of harness.Options.Faults.
func (c *Chaos) BenchPlan(name string) *Plan {
	if c == nil {
		return nil
	}
	return c.benches[name]
}

// IOPlan returns the journal filesystem's fault plan.  Wrap the journal
// directory's iofault.FS with it (iofault.Wrap) when opening a chaos
// run's journal.
func (c *Chaos) IOPlan() *iofault.Plan {
	if c == nil {
		return nil
	}
	return c.io
}

// String renders the full schedule, one line per armed fault.
func (c *Chaos) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed %d:\n", c.Seed)
	for _, name := range c.order {
		p := c.benches[name]
		switch {
		case p == nil:
			fmt.Fprintf(&b, "  %-10s clean\n", name)
		case p.TrapAtStep > 0:
			fmt.Fprintf(&b, "  %-10s trap at step %d\n", name, p.TrapAtStep)
		case p.PanicAtSeq > 0:
			fmt.Fprintf(&b, "  %-10s panic consumer %d at seq %d\n", name, p.PanicConsumer, p.PanicAtSeq)
		case p.SlowEvery > 0:
			fmt.Fprintf(&b, "  %-10s slow consumer %d every %d events\n", name, p.SlowConsumer, p.SlowEvery)
		}
	}
	fmt.Fprintf(&b, "  journal    %s\n", c.io)
	return b.String()
}

// FiredSummary reports which scheduled faults actually triggered, for
// asserting (or logging) that a chaos run exercised its recovery paths.
func (c *Chaos) FiredSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed %d fired:", c.Seed)
	total := int64(0)
	for _, name := range c.order {
		p := c.benches[name]
		if p == nil {
			continue
		}
		trapped, panicked, _, stalled := p.Fired()
		slowed := p.FiredSlow()
		n := trapped + panicked + stalled + slowed
		total += n
		if n > 0 {
			fmt.Fprintf(&b, " %s=%d", name, n)
		}
	}
	if fired := c.io.Fired(); len(fired) > 0 {
		keys := make([]string, 0, len(fired))
		for k := range fired {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " io:%s=%d", k, fired[k])
			total += fired[k]
		}
	}
	if total == 0 {
		b.WriteString(" nothing")
	}
	b.WriteString("\n")
	return b.String()
}
