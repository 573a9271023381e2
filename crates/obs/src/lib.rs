//! Observability substrate for the perconf simulator stack.
//!
//! Three independent facilities, all designed around the same two
//! contracts:
//!
//! * **One atomic load when disabled.** Every build carries the event
//!   tracer and the profiler, and both are gated at runtime: an
//!   instrumentation site in the cycle loop costs one relaxed atomic
//!   load per [`Tracer::enabled`] guard or [`Profiler::scope`] call
//!   while they are off (the default). Counters are not collected at
//!   all during simulation: they are *derived* from state the
//!   simulator already keeps, materialized on demand into a
//!   [`CounterSnapshot`].
//!
//! * **Derived outputs never feed back.** Nothing in this crate is
//!   consulted by the simulator when making a decision, and none of it
//!   is part of the snapshot/digest state. A run with tracing and
//!   profiling active produces bit-identical results to a run without
//!   (pinned by tests in `perconf-pipeline` and by the CI determinism
//!   lane).
//!
//! The pieces:
//!
//! * [`Counters`] / [`CounterSnapshot`] — named monotonic counters and
//!   gauges grouped by subsystem (`fetch`, `rob`, `cache`,
//!   `predictor`, `estimator`, `gating`, …), snapshotable, diffable
//!   between any two points, and mergeable deterministically across
//!   scheduler workers.
//! * [`Tracer`] / [`TraceEvent`] — ring-buffered binary events
//!   (branch resolved, confidence bucket, gating stall begin/end,
//!   checkpoint write, retry) with a runtime [`TraceLevel`] gate,
//!   flushed to a checksummed `.pobs` container ([`pobs`]) that
//!   follows the `snapfile` header conventions, plus a JSON-lines
//!   export for ad-hoc analysis.
//! * [`Profiler`] / [`Scope`] — RAII spans around pipeline stages and
//!   experiment phases, aggregated into a self-time/child-time
//!   [`ProfileReport`].

#![forbid(unsafe_code)]

pub mod counters;
pub mod event;
pub mod pobs;
pub mod profile;
pub mod tracer;

pub use counters::{CounterEntry, CounterKind, CounterSnapshot, Counters};
pub use event::{TraceEvent, TraceLevel};
pub use pobs::{PobsError, TraceFile};
pub use profile::{ProfileReport, ProfileRow, Profiler, Scope};
pub use tracer::Tracer;
