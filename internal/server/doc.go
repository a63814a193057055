// Package server is the engine of cmd/ilplimitd, the multi-tenant
// analysis-as-a-service daemon: clients POST a mini-C program, textual
// assembly, a recorded trace, or a suite selection, and receive the
// model × benchmark parallelism matrix.
//
// The package is built for graceful degradation under overload:
//
//   - a bounded admission queue with explicit load shedding (429 +
//     Retry-After when full) and per-tenant queue shares;
//   - per-tenant concurrency quotas with round-robin fair scheduling,
//     so one tenant's flood cannot starve another's trickle;
//   - per-job deadlines wired into the existing context plumbing, and
//     analyzer panics isolated per job;
//   - a content-addressed result cache (trace CRC32 footer + config
//     fingerprint) with single-flight dedup of identical submissions;
//   - journal-backed durable results that survive SIGKILL and resume
//     on restart, with per-suite-job journals resuming mid-job work;
//   - a graceful drain for SIGTERM.
//
// See DESIGN.md §12 for the admission → quota → cache → execute
// pipeline and the shedding and durability guarantees.
package server
