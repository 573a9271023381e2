//! Long-running supervised experiment server.
//!
//! One-shot `repro` invocations pay full simulation cost for every
//! crash, timeout, or repeated submission. This crate keeps the
//! sweep machinery resident: a TCP line-protocol front end
//! ([`protocol`], newline-delimited JSON) accepts experiment
//! submissions ([`api::ExperimentSpec`]), a [`supervisor`] owns one
//! actor per accepted experiment, and each [`actor`] runs its cells on
//! the existing `runner::Scheduler` wrapped in the full robustness
//! stack:
//!
//! - panic isolation and a per-experiment watchdog on every actor
//!   attempt, through the same attempt primitive
//!   (`runner::run_attempt`) that isolates each cell; an incarnation
//!   the watchdog abandons is joined once it finishes;
//! - bounded retries with exponential backoff, stretched by a
//!   deterministic key-derived jitter (the runner's one retry
//!   schedule, `RunnerConfig::backoff`);
//! - a restart policy: a dead or hung actor is restarted with
//!   `--resume` semantics (final checkpoints and mid-cell
//!   `.part.psnap` partials are picked up) up to a budget, after
//!   which the experiment is marked *degraded* with whatever cells
//!   completed — never silently dropped.
//!
//! Each spec has one checkpoint directory, keyed by its digest
//! ([`api::ExperimentSpec::digest_hex`]), and runs through
//! `faults::run_grid_batched`, the function `repro faults` calls, with
//! one batch group per grid row (the cells that differ only in fault
//! rate), so a row's cells share one trace-level pass. A finished
//! cell is stored once, as the runner's checksummed final, and served
//! from it to repeat submissions and restarted actors without
//! re-simulation. A checksum failure discards the final and
//! recomputes the cell — corruption degrades to recompute, never to a
//! wrong or missing result.
//!
//! Under load the server sheds: the submission queue is bounded and
//! overflow gets an explicit 429-style `Busy` rejection. On SIGTERM
//! (or a protocol `Shutdown`) the server drains accepted work, leaves
//! pending markers and partials on disk for any experiment it could
//! not finish, and a restarted server resumes them.

//!
//! Determinism stance: this crate is part of the result-producing
//! path, so it carries the same hygiene contract as the rest of the
//! workspace — no `unsafe` anywhere (the SIGTERM plumbing lives in
//! the vendored `signal-hook` subset), and every file write goes
//! through `perconf_bpred::atomic_write`. `perconf-lint` verifies both
//! statically on every CI run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod api;
pub mod protocol;
pub mod server;
pub mod supervisor;
