// Package faultinject builds deterministic fault plans for the pipeline's
// resilience tests: trap the VM at a chosen step, panic a chosen analyzer
// at a chosen replay chunk, corrupt a published chunk, stall a consumer
// long enough to exercise the broadcast ring's flow control, slow a
// consumer steadily, or starve one analyzer of trace chunks to seed a
// model-ordering invariant violation.
//
// A Plan is pure data; it acts only when wired into the two test-only
// hooks the pipeline exposes — vm.VM.StepHook (via Plan.StepHook) and the
// replay's ReplayHooks (via Plan.Hooks, installed through
// limits.ReplayOptions.Hooks; a warm trace-store replay takes the
// consumer seam, BeforeChunk, through tracestore.Replay.Run).
// Production code never constructs a Plan,
// so the hot paths carry at most a nil check per chunk.  Every fault site records whether
// it actually fired (Plan.Fired), letting tests assert that a recovery
// path was exercised rather than skipped.
package faultinject
