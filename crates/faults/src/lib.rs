//! Deterministic, seeded fault injection for resilience studies.
//!
//! Confidence estimators guard speculation decisions, so it matters
//! how gracefully they (and the predictors they watch) degrade when
//! their SRAM state takes single-event upsets. This crate provides the
//! machinery to ask that question reproducibly:
//!
//! * [`FaultPlan`] — a seeded schedule of single-bit faults: the same
//!   [`FaultConfig`] always replays the same (access, bit) sequence;
//! * [`FaultyPredictor`] / [`FaultyEstimator`] — transparent adapters
//!   that flip bits in any [`FaultableState`](perconf_bpred::FaultableState)
//!   structure (perceptron weights, saturating counters, history
//!   registers) at a configurable per-access rate, plus optional
//!   transient corruption of the in-flight global history;
//! * [`ChaosPlan`] — a seeded schedule of process-level faults (kills,
//!   stalls, delays) for distributed-sweep workers.
//!
//! Zero-rate wrappers are bit-identical passthroughs, so a resilience
//! sweep's baseline point is exactly the unwrapped system.
//!
//! # Examples
//!
//! ```
//! use perconf_bpred::{baseline_bimodal_gshare, BranchPredictor};
//! use perconf_faults::{FaultConfig, FaultyPredictor};
//!
//! let cfg = FaultConfig::state_only(1e-3, 42);
//! let mut p = FaultyPredictor::new(baseline_bimodal_gshare(), &cfg);
//! let mut hist = 0u64;
//! for i in 0..10_000u64 {
//!     let pc = 0x40 + (i % 64) * 4;
//!     let taken = i % 3 != 0;
//!     let _ = p.predict(pc, hist);
//!     p.train(pc, hist, taken);
//!     hist = (hist << 1) | u64::from(taken);
//! }
//! assert!(p.injected() > 0); // ~20 faults over 20k accesses
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
pub mod process;
mod wrap;

pub use plan::{FaultConfig, FaultPlan};
pub use process::{ChaosAction, ChaosConfig, ChaosPlan};
pub use wrap::{FaultyEstimator, FaultyPredictor};
